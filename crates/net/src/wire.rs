//! Length-prefixed, versioned wire format.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use shhc_types::{Error, Fingerprint, Result, StreamId, FINGERPRINT_LEN};

/// Wire protocol version byte; bump on incompatible layout changes.
/// Version 3 retired the range-scan frames (tags 10 and 11) and answers
/// [`Frame::MigrateReq`] with a [`Frame::LookupResp`].
pub const WIRE_VERSION: u8 = 3;

const TAG_LOOKUP_INSERT_REQ: u8 = 1;
const TAG_QUERY_REQ: u8 = 2;
const TAG_LOOKUP_RESP: u8 = 3;
const TAG_PING: u8 = 4;
const TAG_PONG: u8 = 5;
const TAG_RECORD_REQ: u8 = 6;
const TAG_ACK: u8 = 7;
const TAG_ERROR: u8 = 8;
const TAG_REMOVE_REQ: u8 = 9;
const TAG_MIGRATE_REQ: u8 = 12;

/// A protocol message exchanged between front-ends and hash nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// The paper's operation: look up a batch of fingerprints, inserting
    /// any that are absent (Fig. 4 flow). The response reports, per
    /// fingerprint, whether the chunk already existed.
    LookupInsertReq {
        /// Request/response correlation id.
        correlation: u64,
        /// The backup stream the batch belongs to.
        stream: StreamId,
        /// The batched fingerprints, in stream order.
        fingerprints: Vec<Fingerprint>,
    },
    /// Read-only existence query (no insertion on miss). Body:
    /// `[u32 count][count × 20-byte fingerprint]`, the same as
    /// [`Frame::RemoveReq`]. Wire version 1 carried a one-byte cache
    /// hint before the count; version 2 dropped it.
    QueryReq {
        /// Request/response correlation id.
        correlation: u64,
        /// The batched fingerprints.
        fingerprints: Vec<Fingerprint>,
    },
    /// Response to either request type.
    LookupResp {
        /// Correlation id copied from the request.
        correlation: u64,
        /// Per-fingerprint existence, parallel to the request order.
        exists: Vec<bool>,
        /// For each *existing* fingerprint (in order), the value stored
        /// with it (e.g. a packed chunk location); new fingerprints carry
        /// no value.
        values: Vec<u64>,
    },
    /// Associates values (e.g. chunk locations assigned by the storage
    /// backend) with fingerprints previously inserted as new.
    RecordReq {
        /// Request/response correlation id.
        correlation: u64,
        /// `(fingerprint, value)` pairs to record.
        pairs: Vec<(Fingerprint, u64)>,
    },
    /// Generic acknowledgement.
    Ack {
        /// Correlation id copied from the request.
        correlation: u64,
    },
    /// Liveness probe.
    Ping {
        /// Request/response correlation id.
        correlation: u64,
    },
    /// Liveness reply.
    Pong {
        /// Correlation id copied from the ping.
        correlation: u64,
    },
    /// Removes fingerprints whose chunks were garbage-collected (backup
    /// deletion path). Answered with [`Frame::Ack`].
    RemoveReq {
        /// Request/response correlation id.
        correlation: u64,
        /// Fingerprints to remove.
        fingerprints: Vec<Fingerprint>,
    },
    /// Installs migrated entries on an owner: each fingerprint is inserted
    /// with its carried value **if absent**; entries the node already
    /// holds keep their (fresher) local value. Answered with a
    /// [`Frame::LookupResp`] parallel to `pairs`: `exists` marks the
    /// entries the node already held, with the value it held.
    MigrateReq {
        /// Request/response correlation id.
        correlation: u64,
        /// `(fingerprint, value)` entries to install.
        pairs: Vec<(Fingerprint, u64)>,
    },
    /// Server-side failure while handling the correlated request.
    Error {
        /// Correlation id copied from the request.
        correlation: u64,
        /// Human-readable failure description.
        message: String,
    },
}

impl Frame {
    /// The correlation id carried by any frame.
    pub fn correlation(&self) -> u64 {
        match self {
            Frame::LookupInsertReq { correlation, .. }
            | Frame::QueryReq { correlation, .. }
            | Frame::LookupResp { correlation, .. }
            | Frame::RecordReq { correlation, .. }
            | Frame::RemoveReq { correlation, .. }
            | Frame::MigrateReq { correlation, .. }
            | Frame::Ack { correlation }
            | Frame::Ping { correlation }
            | Frame::Pong { correlation }
            | Frame::Error { correlation, .. } => *correlation,
        }
    }
}

/// Serializes a frame: `[u32 len][u8 version][u8 tag][u64 correlation]…`.
///
/// The length prefix counts everything after itself.
pub fn encode(frame: &Frame) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_len(frame));
    encode_into(frame, &mut buf);
    buf.freeze()
}

/// Serializes a frame through a caller-retained scratch buffer,
/// returning an owned [`Bytes`]: the frame is encoded with
/// [`encode_into`] (reusing `scratch`'s allocation across calls) and the
/// result copied once into refcounted storage. Node server loops answer
/// thousands of frames from one thread; this keeps each reply to a
/// single right-sized allocation instead of growing a fresh buffer from
/// zero per frame as [`encode`] does.
pub fn encode_reusing(frame: &Frame, scratch: &mut BytesMut) -> Bytes {
    encode_into(frame, scratch);
    Bytes::copy_from_slice(scratch)
}

/// Serializes a frame into `buf`, clearing it first and reusing its
/// allocation — for callers that keep a scratch buffer across frames
/// (codec benches, byte-oriented transports). The in-process cluster
/// transport carries refcounted [`Bytes`], so its hot path instead
/// encodes once per replica group and shares the buffer via
/// `Bytes::clone`.
pub fn encode_into(frame: &Frame, buf: &mut BytesMut) {
    buf.clear();
    buf.reserve(encoded_len(frame));
    buf.put_u32_le(0); // patched below
    buf.put_u8(WIRE_VERSION);
    match frame {
        Frame::LookupInsertReq {
            correlation,
            stream,
            fingerprints,
        } => {
            buf.put_u8(TAG_LOOKUP_INSERT_REQ);
            buf.put_u64_le(*correlation);
            buf.put_u32_le(stream.raw());
            buf.put_u32_le(fingerprints.len() as u32);
            for fp in fingerprints {
                buf.put_slice(fp.as_bytes());
            }
        }
        Frame::QueryReq {
            correlation,
            fingerprints,
        } => {
            buf.put_u8(TAG_QUERY_REQ);
            buf.put_u64_le(*correlation);
            buf.put_u32_le(fingerprints.len() as u32);
            for fp in fingerprints {
                buf.put_slice(fp.as_bytes());
            }
        }
        Frame::LookupResp {
            correlation,
            exists,
            values,
        } => {
            buf.put_u8(TAG_LOOKUP_RESP);
            buf.put_u64_le(*correlation);
            buf.put_u32_le(exists.len() as u32);
            // Bit-packed existence vector.
            let mut byte = 0u8;
            for (i, &e) in exists.iter().enumerate() {
                if e {
                    byte |= 1 << (i % 8);
                }
                if i % 8 == 7 {
                    buf.put_u8(byte);
                    byte = 0;
                }
            }
            if exists.len() % 8 != 0 {
                buf.put_u8(byte);
            }
            // One value per set bit, in order.
            debug_assert_eq!(
                values.len(),
                exists.iter().filter(|e| **e).count(),
                "one value per existing fingerprint"
            );
            for v in values {
                buf.put_u64_le(*v);
            }
        }
        Frame::RecordReq { correlation, pairs } => {
            buf.put_u8(TAG_RECORD_REQ);
            buf.put_u64_le(*correlation);
            buf.put_u32_le(pairs.len() as u32);
            for (fp, v) in pairs {
                buf.put_slice(fp.as_bytes());
                buf.put_u64_le(*v);
            }
        }
        Frame::Ack { correlation } => {
            buf.put_u8(TAG_ACK);
            buf.put_u64_le(*correlation);
        }
        Frame::Ping { correlation } => {
            buf.put_u8(TAG_PING);
            buf.put_u64_le(*correlation);
        }
        Frame::Pong { correlation } => {
            buf.put_u8(TAG_PONG);
            buf.put_u64_le(*correlation);
        }
        Frame::RemoveReq {
            correlation,
            fingerprints,
        } => {
            buf.put_u8(TAG_REMOVE_REQ);
            buf.put_u64_le(*correlation);
            buf.put_u32_le(fingerprints.len() as u32);
            for fp in fingerprints {
                buf.put_slice(fp.as_bytes());
            }
        }
        Frame::MigrateReq { correlation, pairs } => {
            buf.put_u8(TAG_MIGRATE_REQ);
            buf.put_u64_le(*correlation);
            buf.put_u32_le(pairs.len() as u32);
            for (fp, v) in pairs {
                buf.put_slice(fp.as_bytes());
                buf.put_u64_le(*v);
            }
        }
        Frame::Error {
            correlation,
            message,
        } => {
            buf.put_u8(TAG_ERROR);
            buf.put_u64_le(*correlation);
            let bytes = message.as_bytes();
            buf.put_u32_le(bytes.len() as u32);
            buf.put_slice(bytes);
        }
    }
    let len = (buf.len() - 4) as u32;
    buf[..4].copy_from_slice(&len.to_le_bytes());
}

/// Exact encoded size of a frame in bytes (including the length prefix) —
/// used by the virtual network model to charge bandwidth without encoding.
pub fn encoded_len(frame: &Frame) -> usize {
    4 + 1
        + match frame {
            Frame::LookupInsertReq { fingerprints, .. } => {
                1 + 8 + 4 + 4 + fingerprints.len() * FINGERPRINT_LEN
            }
            Frame::QueryReq { fingerprints, .. } | Frame::RemoveReq { fingerprints, .. } => {
                1 + 8 + 4 + fingerprints.len() * FINGERPRINT_LEN
            }
            Frame::LookupResp { exists, values, .. } => {
                1 + 8 + 4 + exists.len().div_ceil(8) + values.len() * 8
            }
            Frame::RecordReq { pairs, .. } => 1 + 8 + 4 + pairs.len() * (FINGERPRINT_LEN + 8),
            Frame::MigrateReq { pairs, .. } => 1 + 8 + 4 + pairs.len() * (FINGERPRINT_LEN + 8),
            Frame::Ack { .. } | Frame::Ping { .. } | Frame::Pong { .. } => 1 + 8,
            Frame::Error { message, .. } => 1 + 8 + 4 + message.len(),
        }
}

/// Encoded size of a [`Frame::LookupInsertReq`] carrying `n` fingerprints,
/// without building the frame (hot-path helper for the virtual network
/// model).
pub fn lookup_req_len(n: usize) -> usize {
    4 + 1 + 1 + 8 + 4 + 4 + n * FINGERPRINT_LEN
}

/// Encoded size of a [`Frame::LookupResp`] with `n` results of which
/// `hits` carry values.
pub fn lookup_resp_len(n: usize, hits: usize) -> usize {
    4 + 1 + 1 + 8 + 4 + n.div_ceil(8) + hits * 8
}

/// Decodes one frame from `bytes` (which must contain exactly one frame).
///
/// # Errors
///
/// [`Error::Decode`] on truncation, version mismatch, unknown tag, a
/// length prefix that disagrees with the payload, or bytes left over
/// after the tag's body.
pub fn decode(bytes: &[u8]) -> Result<Frame> {
    let mut buf = bytes;
    if buf.remaining() < 6 {
        return Err(Error::Decode("frame shorter than header".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() != len {
        return Err(Error::Decode(format!(
            "length prefix {len} but {} bytes follow",
            buf.remaining()
        )));
    }
    let version = buf.get_u8();
    if version != WIRE_VERSION {
        return Err(Error::Decode(format!(
            "unsupported wire version {version} (expected {WIRE_VERSION})"
        )));
    }
    let tag = buf.get_u8();
    let need = |buf: &&[u8], n: usize| -> Result<()> {
        if buf.remaining() < n {
            Err(Error::Decode(format!(
                "truncated frame: need {n} more bytes, have {}",
                buf.remaining()
            )))
        } else {
            Ok(())
        }
    };
    need(&buf, 8)?;
    let correlation = buf.get_u64_le();

    let frame = match tag {
        TAG_LOOKUP_INSERT_REQ => {
            need(&buf, 8)?;
            let stream = StreamId::new(buf.get_u32_le());
            let n = buf.get_u32_le() as usize;
            need(&buf, n * FINGERPRINT_LEN)?;
            let fingerprints = read_fps(&mut buf, n);
            Ok(Frame::LookupInsertReq {
                correlation,
                stream,
                fingerprints,
            })
        }
        TAG_QUERY_REQ => {
            need(&buf, 4)?;
            let n = buf.get_u32_le() as usize;
            need(&buf, n * FINGERPRINT_LEN)?;
            let fingerprints = read_fps(&mut buf, n);
            Ok(Frame::QueryReq {
                correlation,
                fingerprints,
            })
        }
        TAG_LOOKUP_RESP => {
            need(&buf, 4)?;
            let n = buf.get_u32_le() as usize;
            let packed = n.div_ceil(8);
            need(&buf, packed)?;
            let mut exists = Vec::with_capacity(n);
            let mut byte = 0u8;
            for i in 0..n {
                if i % 8 == 0 {
                    byte = buf.get_u8();
                }
                exists.push(byte & (1 << (i % 8)) != 0);
            }
            let hits = exists.iter().filter(|e| **e).count();
            need(&buf, hits * 8)?;
            let mut values = Vec::with_capacity(hits);
            for _ in 0..hits {
                values.push(buf.get_u64_le());
            }
            Ok(Frame::LookupResp {
                correlation,
                exists,
                values,
            })
        }
        TAG_RECORD_REQ => {
            need(&buf, 4)?;
            let n = buf.get_u32_le() as usize;
            need(&buf, n * (FINGERPRINT_LEN + 8))?;
            let pairs = read_pairs(&mut buf, n);
            Ok(Frame::RecordReq { correlation, pairs })
        }
        TAG_ACK => Ok(Frame::Ack { correlation }),
        TAG_PING => Ok(Frame::Ping { correlation }),
        TAG_PONG => Ok(Frame::Pong { correlation }),
        TAG_REMOVE_REQ => {
            need(&buf, 4)?;
            let n = buf.get_u32_le() as usize;
            need(&buf, n * FINGERPRINT_LEN)?;
            let fingerprints = read_fps(&mut buf, n);
            Ok(Frame::RemoveReq {
                correlation,
                fingerprints,
            })
        }
        TAG_MIGRATE_REQ => {
            need(&buf, 4)?;
            let n = buf.get_u32_le() as usize;
            need(&buf, n * (FINGERPRINT_LEN + 8))?;
            let pairs = read_pairs(&mut buf, n);
            Ok(Frame::MigrateReq { correlation, pairs })
        }
        TAG_ERROR => {
            need(&buf, 4)?;
            let n = buf.get_u32_le() as usize;
            need(&buf, n)?;
            let mut bytes = vec![0u8; n];
            buf.copy_to_slice(&mut bytes);
            let message = String::from_utf8(bytes)
                .map_err(|_| Error::Decode("error message is not UTF-8".into()))?;
            Ok(Frame::Error {
                correlation,
                message,
            })
        }
        other => Err(Error::Decode(format!("unknown frame tag {other}"))),
    }?;
    if buf.has_remaining() {
        return Err(Error::Decode(format!(
            "{} trailing bytes after the frame body",
            buf.remaining()
        )));
    }
    Ok(frame)
}

/// Reads `n` `(fingerprint, value)` pairs; the caller has verified the
/// buffer holds them.
fn read_pairs(buf: &mut &[u8], n: usize) -> Vec<(Fingerprint, u64)> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut fp = [0u8; FINGERPRINT_LEN];
        buf.copy_to_slice(&mut fp);
        let v = buf.get_u64_le();
        out.push((Fingerprint::from_bytes(fp), v));
    }
    out
}

fn read_fps(buf: &mut &[u8], n: usize) -> Vec<Fingerprint> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut fp = [0u8; FINGERPRINT_LEN];
        buf.copy_to_slice(&mut fp);
        out.push(Fingerprint::from_bytes(fp));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::LookupInsertReq {
                correlation: 1,
                stream: StreamId::new(9),
                fingerprints: (0..5).map(Fingerprint::from_u64).collect(),
            },
            Frame::QueryReq {
                correlation: 2,
                fingerprints: vec![],
            },
            Frame::QueryReq {
                correlation: 15,
                fingerprints: (20..24).map(Fingerprint::from_u64).collect(),
            },
            Frame::LookupResp {
                correlation: 3,
                exists: vec![true, false, true, true, false, false, true, false, true],
                values: vec![10, 20, 30, 40, 50],
            },
            Frame::RecordReq {
                correlation: 6,
                pairs: vec![
                    (Fingerprint::from_u64(1), 11),
                    (Fingerprint::from_u64(2), 22),
                ],
            },
            Frame::Ack { correlation: 7 },
            Frame::Ping { correlation: 4 },
            Frame::Pong { correlation: 5 },
            Frame::Error {
                correlation: 8,
                message: "out of space in flash device".into(),
            },
            Frame::RemoveReq {
                correlation: 9,
                fingerprints: (5..9).map(Fingerprint::from_u64).collect(),
            },
            Frame::MigrateReq {
                correlation: 14,
                pairs: vec![(Fingerprint::from_u64(9), 99)],
            },
        ]
    }

    #[test]
    fn round_trip_all_variants() {
        for frame in sample_frames() {
            let bytes = encode(&frame);
            assert_eq!(decode(&bytes).expect("decode"), frame);
        }
    }

    #[test]
    fn encoded_len_is_exact() {
        for frame in sample_frames() {
            assert_eq!(encode(&frame).len(), encoded_len(&frame), "{frame:?}");
        }
    }

    #[test]
    fn encode_into_reuses_one_buffer_across_frames() {
        let mut buf = BytesMut::new();
        for frame in sample_frames() {
            encode_into(&frame, &mut buf);
            assert_eq!(&buf[..], &encode(&frame)[..], "{frame:?}");
            assert_eq!(decode(&buf).expect("decode"), frame);
        }
    }

    #[test]
    fn query_req_is_count_then_fingerprints() {
        let fps: Vec<Fingerprint> = (1..3).map(Fingerprint::from_u64).collect();
        let bytes = encode(&Frame::QueryReq {
            correlation: 9,
            fingerprints: fps.clone(),
        });
        let mut expected = ((bytes.len() - 4) as u32).to_le_bytes().to_vec();
        expected.extend_from_slice(&[WIRE_VERSION, TAG_QUERY_REQ]);
        expected.extend_from_slice(&9u64.to_le_bytes());
        expected.extend_from_slice(&2u32.to_le_bytes());
        for fp in &fps {
            expected.extend_from_slice(fp.as_bytes());
        }
        assert_eq!(&bytes[..], &expected[..]);
    }

    #[test]
    fn truncation_detected() {
        let bytes = encode(&sample_frames()[0]);
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn bad_version_detected() {
        let mut bytes = encode(&Frame::Ping { correlation: 1 }).to_vec();
        bytes[4] = 99;
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err, Error::Decode(ref m) if m.contains("version")));
    }

    #[test]
    fn bad_tag_detected() {
        let mut bytes = encode(&Frame::Ping { correlation: 1 }).to_vec();
        bytes[5] = 200;
        let err = decode(&bytes).unwrap_err();
        assert!(matches!(err, Error::Decode(ref m) if m.contains("tag")));
    }

    #[test]
    fn correlation_accessor() {
        for frame in sample_frames() {
            assert!(frame.correlation() >= 1);
        }
    }

    proptest! {
        #[test]
        fn prop_lookup_round_trip(correlation: u64, stream: u32,
                                  fps in proptest::collection::vec(any::<u64>(), 0..200)) {
            let frame = Frame::LookupInsertReq {
                correlation,
                stream: StreamId::new(stream),
                fingerprints: fps.iter().map(|v| Fingerprint::from_u64(*v)).collect(),
            };
            let bytes = encode(&frame);
            prop_assert_eq!(bytes.len(), encoded_len(&frame));
            prop_assert_eq!(decode(&bytes).unwrap(), frame);
        }

        #[test]
        fn prop_resp_round_trip(correlation: u64,
                                exists in proptest::collection::vec(any::<bool>(), 0..500)) {
            let hits = exists.iter().filter(|e| **e).count();
            let values: Vec<u64> = (0..hits as u64).collect();
            let frame = Frame::LookupResp { correlation, exists, values };
            prop_assert_eq!(decode(&encode(&frame)).unwrap(), frame);
        }
    }
}
