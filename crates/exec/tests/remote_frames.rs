//! Property and adversarial tests of the remote frame codec: round-trip
//! fidelity for arbitrary payload streams, and the R4 contract that
//! corrupt, truncated or oversized input is always a `SpecError`, never a
//! panic or an unbounded allocation.

use eacp_exec::remote::{read_frame, write_frame, MAX_FRAME_BYTES};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any sequence of payloads (including empty ones and arbitrary bytes
    /// laundered through UTF-8) reads back frame for frame, ending in a
    /// clean EOF.
    #[test]
    fn frame_streams_round_trip(
        raw in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..512),
            0..6,
        ),
    ) {
        let payloads: Vec<String> = raw
            .iter()
            .map(|bytes| String::from_utf8_lossy(bytes).into_owned())
            .collect();
        let mut buf = Vec::new();
        for payload in &payloads {
            write_frame(&mut buf, payload).unwrap();
        }
        let mut r = buf.as_slice();
        for payload in &payloads {
            prop_assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(payload.as_str()));
        }
        prop_assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF after the last frame");
    }

    /// Feeding the reader arbitrary garbage terminates without a panic:
    /// every frame either parses, ends the stream cleanly, or errors.
    #[test]
    fn arbitrary_bytes_never_panic_the_reader(
        garbage in proptest::collection::vec(0u8..=255, 0..4096),
    ) {
        let mut r = garbage.as_slice();
        while let Ok(Some(_)) = read_frame(&mut r) {}
    }

    /// Truncating a valid frame anywhere — inside the length prefix or
    /// inside the payload — is an error (or a clean EOF at offset zero),
    /// never a short read silently returned as data.
    #[test]
    fn truncated_frames_are_errors_not_short_reads(
        bytes in proptest::collection::vec(0u8..=255, 1..512),
        cut_percent in 0usize..100,
    ) {
        let payload = String::from_utf8_lossy(&bytes).into_owned();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let cut = (buf.len() * cut_percent) / 100;
        prop_assert!(cut < buf.len());
        let mut r = &buf[..cut];
        match read_frame(&mut r) {
            Ok(None) => prop_assert_eq!(cut, 0, "EOF is only clean at a frame boundary"),
            Err(_) => {}
            Ok(Some(s)) => prop_assert!(false, "read a whole frame from a truncated stream: {:?}", s),
        }
    }
}

#[test]
fn oversized_declared_length_is_rejected_before_allocating() {
    let mut r: &[u8] = &((MAX_FRAME_BYTES as u32) + 1).to_be_bytes();
    let err = read_frame(&mut r).unwrap_err().to_string();
    assert!(err.contains("exceeds"), "{err}");
    // The all-ones prefix (4 GiB claim) too.
    let mut r: &[u8] = &[0xff; 4];
    assert!(read_frame(&mut r).is_err());
}

#[test]
fn oversized_payload_is_refused_at_the_writer() {
    let huge = "x".repeat(MAX_FRAME_BYTES + 1);
    let mut buf = Vec::new();
    let err = write_frame(&mut buf, &huge).unwrap_err().to_string();
    assert!(err.contains("exceeds"), "{err}");
    assert!(buf.is_empty(), "nothing must hit the wire");
}

#[test]
fn frame_exactly_at_the_cap_round_trips() {
    let max = "y".repeat(MAX_FRAME_BYTES);
    let mut buf = Vec::new();
    write_frame(&mut buf, &max).unwrap();
    let mut r = buf.as_slice();
    assert_eq!(read_frame(&mut r).unwrap(), Some(max));
}

/// A frame of 200,000 nested `[` decodes to a typed depth error that the
/// server answers with — the connection thread does not overflow its
/// stack, and the server keeps serving.
#[test]
fn deeply_nested_frame_is_answered_with_a_depth_error() {
    use eacp_exec::remote::{answer_request, ping, RemoteServer};
    use std::time::Duration;

    let deep = "[".repeat(200_000);
    let answer = answer_request(&deep);
    assert!(answer.contains("depth limit"), "{answer}");

    let server = RemoteServer::bind("127.0.0.1:0").unwrap();
    let stream = std::net::TcpStream::connect(server.endpoint()).unwrap();
    let mut writer = &stream;
    write_frame(&mut writer, &deep).unwrap();
    let mut reader = &stream;
    let response = read_frame(&mut reader).unwrap().expect("an error response");
    assert!(response.contains("depth limit"), "{response}");
    ping(server.endpoint(), Duration::from_secs(5)).expect("server still serving");
}
