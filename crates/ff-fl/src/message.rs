//! The server↔client protocol and its binary wire codec.
//!
//! Messages are length-prefixed tagged values over [`bytes`]. The codec is
//! deliberately hand-rolled (no serde data format is in the allowed
//! dependency set) and round-trip tested; the runtime encodes every
//! instruction and decodes every reply so nothing "accidentally" crosses
//! the client boundary without passing through here.

use crate::config::{ConfigMap, ConfigValue};
use crate::FlError;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Server → client instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instruction {
    /// Request client properties / locally computed statistics.
    GetProperties(ConfigMap),
    /// Train locally. `params` seed the local model (may be empty).
    Fit {
        /// Global model parameters (flat), possibly empty on round one.
        params: Vec<f64>,
        /// Round configuration (hyperparameters, algorithm choice, …).
        config: ConfigMap,
    },
    /// Evaluate the given parameters/configuration on the local validation
    /// split.
    Evaluate {
        /// Model parameters to evaluate.
        params: Vec<f64>,
        /// Evaluation configuration.
        config: ConfigMap,
    },
}

/// Client → server reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Properties in response to [`Instruction::GetProperties`].
    Properties(ConfigMap),
    /// Fit result.
    FitRes {
        /// Updated local parameters (flat), possibly empty for non-parametric
        /// models whose state travels in `metrics` as bytes.
        params: Vec<f64>,
        /// Number of local training examples (FedAvg weight).
        num_examples: u64,
        /// Free-form metrics (local loss, serialized model, timings…).
        metrics: ConfigMap,
    },
    /// Evaluate result.
    EvaluateRes {
        /// Local validation loss.
        loss: f64,
        /// Number of local validation examples.
        num_examples: u64,
        /// Free-form metrics.
        metrics: ConfigMap,
    },
    /// Application-level error.
    Error(String),
    /// The client panicked while handling the instruction. Produced by the
    /// runtime's `catch_unwind` wrapper, never by well-behaved clients; the
    /// payload is the panic message.
    Panicked(String),
}

const TAG_GET_PROPERTIES: u8 = 1;
const TAG_FIT: u8 = 2;
const TAG_EVALUATE: u8 = 3;
const TAG_PROPERTIES: u8 = 11;
const TAG_FIT_RES: u8 = 12;
const TAG_EVALUATE_RES: u8 = 13;
const TAG_ERROR: u8 = 15;
const TAG_PANICKED: u8 = 16;

const VTAG_FLOAT: u8 = 1;
const VTAG_INT: u8 = 2;
const VTAG_STR: u8 = 3;
const VTAG_BYTES: u8 = 4;
const VTAG_FLOATVEC: u8 = 5;

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Refuses to read `n` bytes the buffer does not hold.
fn need(buf: &Bytes, n: usize, what: &str) -> Result<(), FlError> {
    if buf.remaining() < n {
        return Err(FlError::Codec(format!("truncated {what}")));
    }
    Ok(())
}

fn get_str(buf: &mut Bytes) -> Result<String, FlError> {
    let len = get_u32(buf)? as usize;
    need(buf, len, "string")?;
    let raw = buf.copy_to_bytes(len);
    String::from_utf8(raw.to_vec()).map_err(|_| FlError::Codec("invalid utf8".into()))
}

fn get_u32(buf: &mut Bytes) -> Result<u32, FlError> {
    need(buf, 4, "u32")?;
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut Bytes) -> Result<u64, FlError> {
    need(buf, 8, "u64")?;
    Ok(buf.get_u64_le())
}

fn get_f64(buf: &mut Bytes) -> Result<f64, FlError> {
    need(buf, 8, "f64")?;
    Ok(buf.get_f64_le())
}

fn get_u8(buf: &mut Bytes) -> Result<u8, FlError> {
    need(buf, 1, "tag")?;
    Ok(buf.get_u8())
}

fn put_floats(buf: &mut BytesMut, v: &[f64]) {
    buf.put_u32_le(v.len() as u32);
    for &x in v {
        buf.put_f64_le(x);
    }
}

fn get_floats(buf: &mut Bytes) -> Result<Vec<f64>, FlError> {
    let len = get_u32(buf)? as usize;
    need(buf, len * 8, "float vec")?;
    Ok((0..len).map(|_| buf.get_f64_le()).collect())
}

fn put_config(buf: &mut BytesMut, map: &ConfigMap) {
    buf.put_u32_le(map.len() as u32);
    for (k, v) in map {
        put_str(buf, k);
        match v {
            ConfigValue::Float(x) => {
                buf.put_u8(VTAG_FLOAT);
                buf.put_f64_le(*x);
            }
            ConfigValue::Int(x) => {
                buf.put_u8(VTAG_INT);
                buf.put_i64_le(*x);
            }
            ConfigValue::Str(s) => {
                buf.put_u8(VTAG_STR);
                put_str(buf, s);
            }
            ConfigValue::Bytes(b) => {
                buf.put_u8(VTAG_BYTES);
                buf.put_u32_le(b.len() as u32);
                buf.put_slice(b);
            }
            ConfigValue::FloatVec(v) => {
                buf.put_u8(VTAG_FLOATVEC);
                put_floats(buf, v);
            }
        }
    }
}

fn get_config(buf: &mut Bytes) -> Result<ConfigMap, FlError> {
    let n = get_u32(buf)? as usize;
    let mut map = ConfigMap::new();
    for _ in 0..n {
        let key = get_str(buf)?;
        let vtag = get_u8(buf)?;
        let value = match vtag {
            VTAG_FLOAT => ConfigValue::Float(get_f64(buf)?),
            VTAG_INT => {
                need(buf, 8, "i64")?;
                ConfigValue::Int(buf.get_i64_le())
            }
            VTAG_STR => ConfigValue::Str(get_str(buf)?),
            VTAG_BYTES => {
                let len = get_u32(buf)? as usize;
                need(buf, len, "bytes")?;
                ConfigValue::Bytes(buf.copy_to_bytes(len).to_vec())
            }
            VTAG_FLOATVEC => ConfigValue::FloatVec(get_floats(buf)?),
            t => return Err(FlError::Codec(format!("unknown value tag {t}"))),
        };
        map.insert(key, value);
    }
    Ok(map)
}

impl Instruction {
    /// Encodes to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            Instruction::GetProperties(cfg) => {
                buf.put_u8(TAG_GET_PROPERTIES);
                put_config(&mut buf, cfg);
            }
            Instruction::Fit { params, config } => {
                buf.put_u8(TAG_FIT);
                put_floats(&mut buf, params);
                put_config(&mut buf, config);
            }
            Instruction::Evaluate { params, config } => {
                buf.put_u8(TAG_EVALUATE);
                put_floats(&mut buf, params);
                put_config(&mut buf, config);
            }
        }
        buf.freeze()
    }

    /// Decodes from wire bytes.
    pub fn decode(mut raw: Bytes) -> Result<Instruction, FlError> {
        let tag = get_u8(&mut raw)?;
        let ins = match tag {
            TAG_GET_PROPERTIES => Instruction::GetProperties(get_config(&mut raw)?),
            TAG_FIT => Instruction::Fit {
                params: get_floats(&mut raw)?,
                config: get_config(&mut raw)?,
            },
            TAG_EVALUATE => Instruction::Evaluate {
                params: get_floats(&mut raw)?,
                config: get_config(&mut raw)?,
            },
            t => return Err(FlError::Codec(format!("unknown instruction tag {t}"))),
        };
        if raw.has_remaining() {
            return Err(FlError::Codec("trailing bytes".into()));
        }
        Ok(ins)
    }
}

impl Reply {
    /// Encodes to wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            Reply::Properties(cfg) => {
                buf.put_u8(TAG_PROPERTIES);
                put_config(&mut buf, cfg);
            }
            Reply::FitRes {
                params,
                num_examples,
                metrics,
            } => {
                buf.put_u8(TAG_FIT_RES);
                put_floats(&mut buf, params);
                buf.put_u64_le(*num_examples);
                put_config(&mut buf, metrics);
            }
            Reply::EvaluateRes {
                loss,
                num_examples,
                metrics,
            } => {
                buf.put_u8(TAG_EVALUATE_RES);
                buf.put_f64_le(*loss);
                buf.put_u64_le(*num_examples);
                put_config(&mut buf, metrics);
            }
            Reply::Error(msg) => {
                buf.put_u8(TAG_ERROR);
                put_str(&mut buf, msg);
            }
            Reply::Panicked(msg) => {
                buf.put_u8(TAG_PANICKED);
                put_str(&mut buf, msg);
            }
        }
        buf.freeze()
    }

    /// Decodes from wire bytes.
    pub fn decode(mut raw: Bytes) -> Result<Reply, FlError> {
        let tag = get_u8(&mut raw)?;
        let reply = match tag {
            TAG_PROPERTIES => Reply::Properties(get_config(&mut raw)?),
            TAG_FIT_RES => Reply::FitRes {
                params: get_floats(&mut raw)?,
                num_examples: get_u64(&mut raw)?,
                metrics: get_config(&mut raw)?,
            },
            TAG_EVALUATE_RES => Reply::EvaluateRes {
                loss: get_f64(&mut raw)?,
                num_examples: get_u64(&mut raw)?,
                metrics: get_config(&mut raw)?,
            },
            TAG_ERROR => Reply::Error(get_str(&mut raw)?),
            TAG_PANICKED => Reply::Panicked(get_str(&mut raw)?),
            t => return Err(FlError::Codec(format!("unknown reply tag {t}"))),
        };
        if raw.has_remaining() {
            return Err(FlError::Codec("trailing bytes".into()));
        }
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigMapExt;

    fn sample_config() -> ConfigMap {
        ConfigMap::new()
            .with_float("lr", 0.01)
            .with_int("round", 3)
            .with_str("algo", "xgb")
            .with_bytes("blob", vec![1, 2, 3, 255])
            .with_floats("mf", vec![0.5, -1.5, 2.25])
    }

    #[test]
    fn instruction_roundtrips() {
        for ins in [
            Instruction::GetProperties(sample_config()),
            Instruction::Fit {
                params: vec![1.0, -2.0, 3.5],
                config: sample_config(),
            },
            Instruction::Evaluate {
                params: vec![],
                config: ConfigMap::new(),
            },
        ] {
            let encoded = ins.encode();
            let decoded = Instruction::decode(encoded).unwrap();
            assert_eq!(ins, decoded);
        }
    }

    #[test]
    fn reply_roundtrips() {
        for reply in [
            Reply::Properties(sample_config()),
            Reply::FitRes {
                params: vec![0.1; 7],
                num_examples: 1234,
                metrics: sample_config(),
            },
            Reply::EvaluateRes {
                loss: 0.125,
                num_examples: 55,
                metrics: ConfigMap::new(),
            },
            Reply::Error("boom".into()),
            Reply::Panicked("index out of bounds".into()),
        ] {
            let encoded = reply.encode();
            let decoded = Reply::decode(encoded).unwrap();
            assert_eq!(reply, decoded);
        }
    }

    #[test]
    fn truncated_messages_are_rejected() {
        let full = Instruction::Fit {
            params: vec![1.0, 2.0],
            config: sample_config(),
        }
        .encode();
        for cut in 1..full.len() - 1 {
            let truncated = full.slice(0..cut);
            assert!(
                Instruction::decode(truncated).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        let raw = Bytes::from_static(&[99]);
        assert!(Instruction::decode(raw.clone()).is_err());
        assert!(Reply::decode(raw).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut raw = Reply::Error("x".into()).encode().to_vec();
        raw.push(0); // junk
        assert!(Reply::decode(Bytes::from(raw)).is_err());
    }
}
