//! Wire-protocol robustness: a hash node is a network service, so its
//! decoder must never panic — on truncation, corruption, or arbitrary
//! garbage. (Every cluster test already carries its frames across a real
//! channel hop between threads.)

use proptest::prelude::*;
use shhc_net::{decode, encode, Frame, WIRE_VERSION};
use shhc_types::{Error, Fingerprint, StreamId};

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
        (any::<u64>(), fps.clone()).prop_map(|(c, f)| Frame::QueryReq {
            correlation: c,
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

/// One frame of every tag, each with a non-empty body where it has one.
fn one_of_each_tag() -> Vec<Frame> {
    let fps: Vec<Fingerprint> = (1..4).map(Fingerprint::from_u64).collect();
    let pairs: Vec<(Fingerprint, u64)> = fps.iter().map(|fp| (*fp, 7)).collect();
    vec![
        Frame::LookupInsertReq {
            correlation: 1,
            stream: StreamId::new(3),
            fingerprints: fps.clone(),
        },
        Frame::QueryReq {
            correlation: 2,
            fingerprints: fps.clone(),
        },
        Frame::LookupResp {
            correlation: 3,
            exists: vec![true, false, true],
            values: vec![10, 30],
        },
        Frame::Ping { correlation: 4 },
        Frame::Pong { correlation: 5 },
        Frame::RecordReq {
            correlation: 6,
            pairs: pairs.clone(),
        },
        Frame::Ack { correlation: 7 },
        Frame::Error {
            correlation: 8,
            message: "boom".into(),
        },
        Frame::RemoveReq {
            correlation: 9,
            fingerprints: fps.clone(),
        },
        Frame::MigrateReq {
            correlation: 12,
            pairs,
        },
    ]
}

/// Rewrites the length prefix to count everything after itself.
fn patch_len(bytes: &mut [u8]) {
    let len = (bytes.len() - 4) as u32;
    bytes[..4].copy_from_slice(&len.to_le_bytes());
}

/// A byte appended *inside* the length prefix: the prefix agrees with
/// the payload, but the tag's body ends one byte early. Every tag must
/// reject it rather than silently drop the extra byte.
#[test]
fn trailing_byte_inside_length_prefix_rejected_on_every_tag() {
    for frame in one_of_each_tag() {
        for extra in [0x00u8, 0x01, 0xFF] {
            let mut bytes = encode(&frame).to_vec();
            bytes.push(extra);
            patch_len(&mut bytes);
            let err = decode(&bytes).expect_err("trailing byte accepted");
            assert!(matches!(err, Error::Decode(_)), "{frame:?}: {err:?}");
        }
    }
}

/// The version-1 `QueryReq` carried a one-byte cache-admission hint
/// between the correlation id and the count. Such a frame is rejected
/// under its own version byte and under the current one.
#[test]
fn old_layout_query_req_rejected() {
    for (hint, n) in [(0u8, 0u32), (1, 0), (0, 2), (1, 3)] {
        let mut old = vec![0u8; 4];
        old.push(1); // version 1
        old.push(2); // TAG_QUERY_REQ
        old.extend_from_slice(&42u64.to_le_bytes());
        old.push(hint);
        old.extend_from_slice(&n.to_le_bytes());
        for i in 0..u64::from(n) {
            old.extend_from_slice(Fingerprint::from_u64(i).as_bytes());
        }
        patch_len(&mut old);
        let err = decode(&old).expect_err("version-1 frame accepted");
        assert!(matches!(err, Error::Decode(_)), "{err:?}");

        let mut relabelled = old.clone();
        relabelled[4] = WIRE_VERSION;
        let err = decode(&relabelled).expect_err("old layout accepted");
        assert!(
            matches!(err, Error::Decode(_)),
            "hint {hint} n {n}: {err:?}"
        );
    }
}

/// Version 2 is retired: a frame of every current tag stamped with
/// version byte 2 is rejected, not decoded under the new layout.
#[test]
fn version_2_frames_rejected() {
    assert_eq!(WIRE_VERSION, 3);
    for frame in one_of_each_tag() {
        let mut bytes = encode(&frame).to_vec();
        bytes[4] = 2;
        let err = decode(&bytes).expect_err("version-2 frame accepted");
        assert!(
            matches!(err, Error::Decode(ref m) if m.contains("version")),
            "{frame:?}: {err:?}"
        );
    }
}

/// Tags 10 and 11 were the range-scan pager's request and page. Under
/// the current version they are unknown tags, with or without a body in
/// their old layout.
#[test]
fn retired_range_scan_tags_rejected() {
    // The old request body: range (16 bytes), cursor flag + fingerprint,
    // limit; the old page: done flag, count, one pair.
    let mut old_req = vec![0u8; 16];
    old_req.push(1);
    old_req.extend_from_slice(Fingerprint::from_u64(5).as_bytes());
    old_req.extend_from_slice(&64u32.to_le_bytes());
    let mut old_resp = vec![1u8];
    old_resp.extend_from_slice(&1u32.to_le_bytes());
    old_resp.extend_from_slice(Fingerprint::from_u64(5).as_bytes());
    old_resp.extend_from_slice(&9u64.to_le_bytes());
    for (tag, body) in [(10u8, old_req), (11, old_resp)] {
        for body in [Vec::new(), body] {
            let mut bytes = vec![0u8; 4];
            bytes.extend_from_slice(&[WIRE_VERSION, tag]);
            bytes.extend_from_slice(&3u64.to_le_bytes());
            bytes.extend_from_slice(&body);
            patch_len(&mut bytes);
            let err = decode(&bytes).expect_err("retired tag accepted");
            assert!(
                matches!(err, Error::Decode(ref m) if m.contains("tag")),
                "tag {tag}: {err:?}"
            );
        }
    }
}
