//! Wire-protocol robustness: a hash node is a network service, so its
//! decoder must never panic — on truncation, corruption, or arbitrary
//! garbage. (Every cluster test already carries its frames across a real
//! channel hop between threads.)

use proptest::prelude::*;
use shhc_net::{decode, encode, Frame};
use shhc_types::{Admission, Fingerprint, StreamId};

fn arb_frame() -> impl Strategy<Value = Frame> {
    let fps = proptest::collection::vec(any::<u64>(), 0..64)
        .prop_map(|v| v.into_iter().map(Fingerprint::from_u64).collect::<Vec<_>>());
    prop_oneof![
        (any::<u64>(), any::<u32>(), fps.clone()).prop_map(|(c, s, f)| {
            Frame::LookupInsertReq {
                correlation: c,
                stream: StreamId::new(s),
                fingerprints: f,
            }
        }),
        (any::<u64>(), any::<bool>(), fps.clone()).prop_map(|(c, b, f)| Frame::QueryReq {
            correlation: c,
            admission: if b {
                Admission::Bypass
            } else {
                Admission::Normal
            },
            fingerprints: f,
        }),
        (
            any::<u64>(),
            proptest::collection::vec(any::<bool>(), 0..64)
        )
            .prop_map(|(c, e)| {
                let hits = e.iter().filter(|x| **x).count() as u64;
                Frame::LookupResp {
                    correlation: c,
                    exists: e,
                    values: (0..hits).collect(),
                }
            }),
        (
            any::<u64>(),
            proptest::collection::vec((any::<u64>(), any::<u64>()), 0..32)
        )
            .prop_map(|(c, pairs)| Frame::RecordReq {
                correlation: c,
                pairs: pairs
                    .into_iter()
                    .map(|(k, v)| (Fingerprint::from_u64(k), v))
                    .collect(),
            }),
        (any::<u64>(), fps).prop_map(|(c, f)| Frame::RemoveReq {
            correlation: c,
            fingerprints: f,
        }),
        any::<u64>().prop_map(|c| Frame::Ping { correlation: c }),
        any::<u64>().prop_map(|c| Frame::Pong { correlation: c }),
        (any::<u64>(), "[ -~]{0,64}").prop_map(|(c, m)| Frame::Error {
            correlation: c,
            message: m,
        }),
    ]
}

proptest! {
    /// Arbitrary bytes never panic the decoder.
    #[test]
    fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode(&bytes); // Ok or Err, never a panic
    }

    /// Every frame round-trips through encode/decode.
    #[test]
    fn all_frames_round_trip(frame in arb_frame()) {
        let encoded = encode(&frame);
        prop_assert_eq!(decode(&encoded).unwrap(), frame);
    }

    /// Single-bit corruption is either detected (Err) or decodes to a
    /// frame — but never panics and never decodes to the original frame
    /// claiming a *different* payload length class silently growing.
    #[test]
    fn bit_flips_never_panic(frame in arb_frame(), byte_idx in 0usize..4096, bit in 0u8..8) {
        let mut bytes = encode(&frame).to_vec();
        let idx = byte_idx % bytes.len();
        bytes[idx] ^= 1 << bit;
        let _ = decode(&bytes); // must not panic
    }

    /// Concatenated frame prefixes (length mismatch) are rejected.
    #[test]
    fn trailing_bytes_rejected(frame in arb_frame(), extra in 1usize..16) {
        let mut bytes = encode(&frame).to_vec();
        bytes.extend(std::iter::repeat_n(0xAA, extra));
        prop_assert!(decode(&bytes).is_err());
    }
}

#[test]
fn empty_and_header_only_inputs() {
    assert!(decode(&[]).is_err());
    assert!(decode(&[0]).is_err());
    assert!(decode(&[0, 0, 0, 0]).is_err());
    // A length prefix of zero with nothing after it.
    assert!(decode(&[0, 0, 0, 0, 1]).is_err());
}
