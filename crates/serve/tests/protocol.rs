//! Protocol-robustness tests: malformed frames, bad versions, garbage
//! payloads and mid-request disconnects must never take the server (or
//! its shared store) down — at worst they cost the offending client its
//! own connection.

use digiq_core::engine::SweepSpec;
use digiq_serve::server::NS_SWEEP;
use digiq_serve::{serve, Client, EvalOutcome, Response, ServeConfig, MAX_FRAME};
use std::net::Shutdown;

fn start() -> (digiq_serve::ServerHandle, String) {
    let handle = serve(ServeConfig::default()).expect("bind loopback");
    let addr = handle.addr().to_string();
    (handle, addr)
}

/// A length-prefixed frame, built by hand so tests can also build
/// deliberately broken ones.
fn raw_frame(payload: &[u8]) -> Vec<u8> {
    let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(payload);
    bytes
}

#[test]
fn garbage_json_gets_a_typed_error_and_the_connection_survives() {
    let (handle, addr) = start();
    let mut client = Client::connect(&addr).unwrap();
    client.send_raw(&raw_frame(b"{{{ not json")).unwrap();
    match client.read_response().unwrap() {
        Response::Error(msg) => assert!(!msg.is_empty()),
        other => panic!("expected a typed error, got {other:?}"),
    }
    // Same connection still serves well-formed requests.
    client.ping().unwrap();
    handle.drain();
    handle.join();
}

#[test]
fn deeply_nested_frame_gets_a_typed_error_and_the_server_survives() {
    let (handle, addr) = start();
    let mut client = Client::connect(&addr).unwrap();
    // 100,000 nested arrays (200 KB, far under MAX_FRAME): unbounded
    // recursive descent would overflow the reader thread's stack and
    // abort the whole daemon.
    let deep = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
    client.send_raw(&raw_frame(deep.as_bytes())).unwrap();
    match client.read_response().unwrap() {
        Response::Error(msg) => assert!(msg.contains("nesting too deep"), "{msg}"),
        other => panic!("expected a typed error, got {other:?}"),
    }
    client.ping().unwrap();
    // The next connection is served too.
    let mut next = Client::connect(&addr).unwrap();
    next.ping().unwrap();
    handle.drain();
    handle.join();
}

#[test]
fn bad_protocol_version_is_a_typed_error_not_a_disconnect() {
    let (handle, addr) = start();
    let mut client = Client::connect(&addr).unwrap();
    client
        .send_raw(&raw_frame(br#"{"v":999,"kind":"ping"}"#))
        .unwrap();
    match client.read_response().unwrap() {
        Response::Error(msg) => assert!(
            msg.contains("version"),
            "error should name the version mismatch: {msg}"
        ),
        other => panic!("expected a typed error, got {other:?}"),
    }
    client.ping().unwrap();
    handle.drain();
    handle.join();
}

#[test]
fn oversized_length_prefix_is_refused_before_allocation() {
    let (handle, addr) = start();
    let mut client = Client::connect(&addr).unwrap();
    // A prefix promising more than MAX_FRAME — the server must refuse
    // without waiting for (or allocating) the announced body.
    client
        .send_raw(&(MAX_FRAME as u32 + 1).to_be_bytes())
        .unwrap();
    match client.read_response().unwrap() {
        Response::Error(msg) => assert!(!msg.is_empty()),
        other => panic!("expected a typed error, got {other:?}"),
    }
    client.ping().unwrap();
    handle.drain();
    handle.join();
}

#[test]
fn truncated_frame_ends_that_connection_but_not_the_server() {
    let (handle, addr) = start();
    let mut half = Client::connect(&addr).unwrap();
    // Two bytes of a four-byte length prefix, then EOF.
    half.send_raw(&[0x00, 0x00]).unwrap();
    half.stream().shutdown(Shutdown::Write).unwrap();
    drop(half);
    // The server keeps accepting and serving other clients.
    let mut other = Client::connect(&addr).unwrap();
    other.ping().unwrap();
    handle.drain();
    handle.join();
}

#[test]
fn mid_request_disconnect_never_poisons_the_store() {
    let (handle, addr) = start();
    let spec = SweepSpec::smoke().with_seeds(vec![0]);

    // Send a full evaluation request, then vanish before the response.
    let mut quitter = Client::connect(&addr).unwrap();
    let req = digiq_serve::Request::Sweep {
        spec: spec.clone(),
        workers: 2,
    };
    quitter
        .send_raw(&raw_frame(
            sfq_hw::json::ToJson::to_json(&req).render().as_bytes(),
        ))
        .unwrap();
    quitter.stream().shutdown(Shutdown::Both).unwrap();
    drop(quitter);

    // A fresh client asking for the same spec gets a full report: the
    // abandoned evaluation completed (or coalesces) and the store slot
    // was never poisoned by the failed response write.
    let mut client = Client::connect(&addr).unwrap();
    match client.sweep(&spec, 2).unwrap() {
        EvalOutcome::Report(text) => assert!(text.starts_with('{')),
        other => panic!("expected a report, got {other:?}"),
    }
    let stats = client.stats().unwrap();
    let ns = stats.get(NS_SWEEP).expect("serve/sweep namespace");
    assert_eq!(
        ns.builds, 1,
        "the disconnected request's evaluation must be reused, not redone"
    );
    handle.drain();
    handle.join();
}
