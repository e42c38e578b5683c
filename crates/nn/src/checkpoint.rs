//! Model checkpointing: serialise a trained [`Mlp`] — architecture,
//! trainable parameters *and* the frozen Fourier frequency matrix — to
//! JSON and restore it bit-exactly.
//!
//! The experiment harness stores raw parameter vectors next to an
//! architecture record; this module is the user-facing variant for
//! downstream applications (train once, ship the surrogate).

use crate::activation::Activation;
use crate::mlp::{FourierConfig, Mlp, MlpConfig};
use sgm_json::{num_arr, obj, JsonError, Value};

/// Serialisable snapshot of a network.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Format version for forward compatibility.
    pub version: u32,
    /// Raw input dimension.
    pub input_dim: usize,
    /// Output dimension.
    pub output_dim: usize,
    /// Hidden width.
    pub hidden_width: usize,
    /// Hidden depth.
    pub hidden_layers: usize,
    /// Activation name (`"silu" | "tanh" | "sin" | "identity"`).
    pub activation: String,
    /// Flattened Fourier frequency matrix (row-major,
    /// `num_features × input_dim`), empty when no encoding is used.
    pub fourier_freq: Vec<f64>,
    /// Fourier feature count (0 = none).
    pub fourier_features: usize,
    /// All trainable parameters in [`Mlp::params`] order.
    pub params: Vec<f64>,
}

fn activation_name(a: Activation) -> &'static str {
    match a {
        Activation::SiLu => "silu",
        Activation::Tanh => "tanh",
        Activation::Sin => "sin",
        Activation::Identity => "identity",
    }
}

fn activation_from(name: &str) -> Option<Activation> {
    match name {
        "silu" => Some(Activation::SiLu),
        "tanh" => Some(Activation::Tanh),
        "sin" => Some(Activation::Sin),
        "identity" => Some(Activation::Identity),
        _ => None,
    }
}

/// Errors from checkpoint restore.
#[derive(Debug)]
pub enum CheckpointError {
    /// Unknown format version.
    Version(u32),
    /// Unknown activation name.
    Activation(String),
    /// Parameter/frequency buffer sizes inconsistent with the shape.
    Shape(String),
    /// Underlying JSON error.
    Json(JsonError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Version(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::Activation(a) => write!(f, "unknown activation {a:?}"),
            CheckpointError::Shape(s) => write!(f, "shape mismatch: {s}"),
            CheckpointError::Json(e) => write!(f, "json error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<JsonError> for CheckpointError {
    fn from(e: JsonError) -> Self {
        CheckpointError::Json(e)
    }
}

impl Checkpoint {
    /// Captures a network.
    pub fn capture(net: &Mlp) -> Self {
        let cfg = net.config();
        let (freq, nf) = match net.fourier_frequencies() {
            Some(m) => (m.as_slice().to_vec(), m.rows()),
            None => (Vec::new(), 0),
        };
        Checkpoint {
            version: 1,
            input_dim: cfg.input_dim,
            output_dim: cfg.output_dim,
            hidden_width: cfg.hidden_width,
            hidden_layers: cfg.hidden_layers,
            activation: activation_name(cfg.activation).to_string(),
            fourier_freq: freq,
            fourier_features: nf,
            params: net.params(),
        }
    }

    /// Restores the network.
    ///
    /// # Errors
    /// Returns [`CheckpointError`] on version/shape/name mismatches.
    pub fn restore(&self) -> Result<Mlp, CheckpointError> {
        if self.version != 1 {
            return Err(CheckpointError::Version(self.version));
        }
        let activation = activation_from(&self.activation)
            .ok_or_else(|| CheckpointError::Activation(self.activation.clone()))?;
        if self.fourier_freq.len() != self.fourier_features * self.input_dim {
            return Err(CheckpointError::Shape(format!(
                "fourier buffer {} != {}×{}",
                self.fourier_freq.len(),
                self.fourier_features,
                self.input_dim
            )));
        }
        let cfg = MlpConfig {
            input_dim: self.input_dim,
            output_dim: self.output_dim,
            hidden_width: self.hidden_width,
            hidden_layers: self.hidden_layers,
            activation,
            fourier: if self.fourier_features > 0 {
                Some(FourierConfig {
                    num_features: self.fourier_features,
                    sigma: 1.0, // the stored matrix overrides the scale
                })
            } else {
                None
            },
        };
        let mut rng = sgm_linalg::rng::Rng64::new(0);
        let mut net = Mlp::new(&cfg, &mut rng);
        if self.fourier_features > 0 {
            net.set_fourier_frequencies(&self.fourier_freq)
                .map_err(CheckpointError::Shape)?;
        }
        if self.params.len() != net.num_params() {
            return Err(CheckpointError::Shape(format!(
                "params {} != {}",
                self.params.len(),
                net.num_params()
            )));
        }
        net.set_params(&self.params);
        Ok(net)
    }

    /// JSON serialisation. Floats are written with Rust's
    /// shortest-roundtrip formatting, so `from_json(to_json())` restores
    /// every parameter bit-exactly.
    ///
    /// # Errors
    /// Infallible in practice; kept as `Result` for API stability.
    pub fn to_json(&self) -> Result<String, CheckpointError> {
        let v = obj([
            ("version", Value::Num(self.version as f64)),
            ("input_dim", Value::Num(self.input_dim as f64)),
            ("output_dim", Value::Num(self.output_dim as f64)),
            ("hidden_width", Value::Num(self.hidden_width as f64)),
            ("hidden_layers", Value::Num(self.hidden_layers as f64)),
            ("activation", Value::Str(self.activation.clone())),
            ("fourier_freq", num_arr(&self.fourier_freq)),
            ("fourier_features", Value::Num(self.fourier_features as f64)),
            ("params", num_arr(&self.params)),
        ]);
        Ok(v.to_string_compact())
    }

    /// JSON deserialisation.
    ///
    /// # Errors
    /// Propagates parse/shape errors.
    pub fn from_json(s: &str) -> Result<Self, CheckpointError> {
        let v = Value::parse(s)?;
        Ok(Checkpoint {
            version: v.req_usize("version")? as u32,
            input_dim: v.req_usize("input_dim")?,
            output_dim: v.req_usize("output_dim")?,
            hidden_width: v.req_usize("hidden_width")?,
            hidden_layers: v.req_usize("hidden_layers")?,
            activation: v.req_str("activation")?.to_string(),
            fourier_freq: v.req_f64_arr("fourier_freq")?,
            fourier_features: v.req_usize("fourier_features")?,
            params: v.req_f64_arr("params")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgm_linalg::dense::Matrix;
    use sgm_linalg::rng::Rng64;

    fn net(fourier: bool) -> Mlp {
        let cfg = MlpConfig {
            input_dim: 3,
            output_dim: 2,
            hidden_width: 10,
            hidden_layers: 2,
            activation: Activation::SiLu,
            fourier: if fourier {
                Some(FourierConfig {
                    num_features: 5,
                    sigma: 0.7,
                })
            } else {
                None
            },
        };
        let mut rng = Rng64::new(9);
        Mlp::new(&cfg, &mut rng)
    }

    #[test]
    fn roundtrip_plain() {
        let original = net(false);
        let json = Checkpoint::capture(&original).to_json().unwrap();
        let restored = Checkpoint::from_json(&json).unwrap().restore().unwrap();
        let mut rng = Rng64::new(3);
        let x = Matrix::gaussian(4, 3, &mut rng);
        let a = original.forward(&x);
        let b = restored.forward(&x);
        for i in 0..a.as_slice().len() {
            assert_eq!(a.as_slice()[i], b.as_slice()[i], "bit-exact restore");
        }
    }

    #[test]
    fn roundtrip_with_fourier() {
        let original = net(true);
        let json = Checkpoint::capture(&original).to_json().unwrap();
        let restored = Checkpoint::from_json(&json).unwrap().restore().unwrap();
        let mut rng = Rng64::new(4);
        let x = Matrix::gaussian(4, 3, &mut rng);
        let a = original.forward(&x);
        let b = restored.forward(&x);
        for i in 0..a.as_slice().len() {
            assert_eq!(a.as_slice()[i], b.as_slice()[i]);
        }
        // Derivatives too (the frequencies matter there).
        let da = original.forward_with_derivs(&x, &[0, 1]);
        let db = restored.forward_with_derivs(&x, &[0, 1]);
        for i in 0..da.jac[0].as_slice().len() {
            assert_eq!(da.jac[0].as_slice()[i], db.jac[0].as_slice()[i]);
        }
    }

    #[test]
    fn rejects_bad_version() {
        let mut c = Checkpoint::capture(&net(false));
        c.version = 99;
        assert!(matches!(c.restore(), Err(CheckpointError::Version(99))));
    }

    #[test]
    fn rejects_bad_activation() {
        let mut c = Checkpoint::capture(&net(false));
        c.activation = "relu6".into();
        assert!(matches!(c.restore(), Err(CheckpointError::Activation(_))));
    }

    #[test]
    fn rejects_truncated_params() {
        let mut c = Checkpoint::capture(&net(false));
        c.params.pop();
        assert!(matches!(c.restore(), Err(CheckpointError::Shape(_))));
    }
}
