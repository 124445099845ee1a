//! Server robustness: every failure mode must leave the server able to
//! serve the next request.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use clockmark_cpa::{
    CandidatePattern, DetectOptions, DetectionCriterion, Detector, SequentialOptions,
};
use clockmark_serve::{
    protocol, Client, ErrorCode, Request, Response, ServeError, ServeLimits, Server, ServerHandle,
};

fn pattern() -> Vec<bool> {
    // Xorshift bits give an aperiodic pattern with one clean peak.
    let mut s = 0x0DD0_5EED_1357_9BDFu64;
    (0..64)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s & 1 == 1
        })
        .collect()
}

fn trace(cycles: usize) -> Vec<f64> {
    let pattern = pattern();
    (0..cycles)
        .map(|i| {
            let wm = if pattern[i % pattern.len()] {
                0.8
            } else {
                -0.8
            };
            wm + (i as f64 * 0.61).sin() * 0.3
        })
        .collect()
}

fn quick_limits() -> ServeLimits {
    ServeLimits {
        read_timeout: Duration::from_millis(500),
        idle_timeout: Duration::from_secs(2),
        ..ServeLimits::default()
    }
}

fn start(limits: ServeLimits) -> ServerHandle {
    Server::new()
        .with_limits(limits)
        .bind("127.0.0.1:0")
        .expect("bind")
}

/// The canary every test ends with: a fresh client must still get a
/// correct verdict after the failure under test.
fn assert_still_serving(handle: &ServerHandle) {
    assert_still_serving_cycles(handle, pattern().len() * 20);
}

/// [`assert_still_serving`] with an explicit trace length, for tests
/// whose limits would reject the default-sized canary.
fn assert_still_serving_cycles(handle: &ServerHandle, cycles: usize) {
    let pattern = pattern();
    let y = trace(cycles);
    let mut client = Client::connect(handle.local_addr()).expect("connect after failure");
    let wire = client
        .detect(&pattern, DetectOptions::default(), &y)
        .expect("detect after failure");
    let local = Detector::new(&pattern)
        .expect("detector")
        .detect(&y)
        .expect("local detect");
    assert_eq!(wire.result, local);
    assert_eq!(wire.cycles, y.len() as u64);
}

#[test]
fn oversized_frame_is_rejected_and_server_survives() {
    let handle = start(ServeLimits {
        max_frame_bytes: 1 << 16,
        ..quick_limits()
    });

    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    protocol::write_greeting(&mut stream).unwrap();
    protocol::read_greeting(&mut stream).expect("greeting echoed");

    // Declare a payload over the limit. The server must refuse before
    // allocating and tell us why.
    let mut header = [0u8; 5];
    header[0] = 0x03; // DetectChunk
    header[1..].copy_from_slice(&((1u32 << 17).to_le_bytes()));
    stream.write_all(&header).unwrap();
    let (ty, payload) = protocol::read_frame(&mut stream, 1 << 16).expect("error frame");
    match Response::decode(ty, &payload).expect("decodes") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::FrameTooLarge),
        other => panic!("expected error frame, got {other:?}"),
    }

    assert_still_serving(&handle);
    handle.shutdown();
}

#[test]
fn truncated_frame_mid_stream_only_kills_that_session() {
    let handle = start(quick_limits());

    {
        let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
        protocol::write_greeting(&mut stream).unwrap();
        protocol::read_greeting(&mut stream).expect("greeting echoed");
        let (ty, payload) = Request::DetectStart {
            pattern: pattern(),
            algo: None,
            criterion: DetectionCriterion::default(),
        }
        .encode();
        protocol::write_frame(&mut stream, ty, &payload).unwrap();
        // Header promises 64 bytes of samples; deliver half and vanish.
        let mut header = [0u8; 5];
        header[0] = 0x03;
        header[1..].copy_from_slice(&(64u32).to_le_bytes());
        stream.write_all(&header).unwrap();
        stream.write_all(&[0u8; 32]).unwrap();
        drop(stream);
    }

    assert_still_serving(&handle);
    handle.shutdown();
}

#[test]
fn client_disconnect_mid_detect_frees_the_slot() {
    // One slot: the canary below only passes if the abandoned session's
    // slot is actually released.
    let handle = start(ServeLimits {
        max_sessions: 1,
        ..quick_limits()
    });

    {
        let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
        protocol::write_greeting(&mut stream).unwrap();
        protocol::read_greeting(&mut stream).expect("greeting echoed");
        let (ty, payload) = Request::DetectStart {
            pattern: pattern(),
            algo: None,
            criterion: DetectionCriterion::default(),
        }
        .encode();
        protocol::write_frame(&mut stream, ty, &payload).unwrap();
        let samples: Vec<f64> = trace(128);
        let (ty, payload) = Request::DetectChunk { samples }.encode();
        protocol::write_frame(&mut stream, ty, &payload).unwrap();
        drop(stream); // disconnect mid-Detect
    }

    // The dead session is reaped within the read timeout; retry until
    // the slot frees rather than sleeping a fixed amount.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(handle.local_addr()).and_then(|mut c| c.ping()) {
            Ok(()) => break,
            Err(ServeError::Busy { .. }) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("server did not recover: {e}"),
        }
    }

    assert_still_serving(&handle);
    handle.shutdown();
}

#[test]
fn pool_full_rejects_with_retry_hint_and_retry_succeeds() {
    let handle = start(ServeLimits {
        max_sessions: 1,
        retry_after_ms: 25,
        ..quick_limits()
    });

    // Occupy the single slot with a live session.
    let mut occupant = Client::connect(handle.local_addr()).expect("connect occupant");
    occupant.ping().expect("occupant ping");

    // The next connection must be rejected with Busy + the hint.
    let mut rejected = Client::connect(handle.local_addr()).expect("tcp connect");
    match rejected.ping() {
        Err(ServeError::Busy { retry_after_ms }) => assert_eq!(retry_after_ms, 25),
        other => panic!("expected Busy, got {other:?}"),
    }
    assert_eq!(handle.status().rejected, 1);

    // Free the slot; a retry within the hinted backoff regime succeeds.
    drop(occupant);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match Client::connect(handle.local_addr()).and_then(|mut c| c.ping()) {
            Ok(()) => break,
            Err(ServeError::Busy { retry_after_ms }) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(retry_after_ms as u64));
            }
            Err(e) => panic!("retry failed: {e}"),
        }
    }

    assert_still_serving(&handle);
    handle.shutdown();
}

/// Writes one request frame on a raw connection.
fn send(stream: &mut TcpStream, request: &Request) {
    let (ty, payload) = request.encode();
    protocol::write_frame(stream, ty, &payload).unwrap();
}

/// Reads one response frame on a raw connection.
fn receive(stream: &mut TcpStream) -> Response {
    let (ty, payload) = protocol::read_frame(stream, 1 << 16).expect("response frame");
    Response::decode(ty, &payload).expect("decodes")
}

fn expect_error(stream: &mut TcpStream, expected: ErrorCode, case: &str) {
    match receive(stream) {
        Response::Error { code, .. } => assert_eq!(code, expected, "{case}"),
        other => panic!("{case}: expected error frame, got {other:?}"),
    }
}

/// The three frames that open a streamed exchange, for `pattern`.
fn start_frames(pattern: &[bool]) -> [Request; 3] {
    [
        Request::DetectStart {
            pattern: pattern.to_vec(),
            algo: None,
            criterion: DetectionCriterion::default(),
        },
        Request::DetectSequentialStart {
            pattern: pattern.to_vec(),
            algo: None,
            criterion: DetectionCriterion::default(),
            options: SequentialOptions::default(),
        },
        Request::IdentifyStart {
            pattern: pattern.to_vec(),
            algo: None,
            criterion: DetectionCriterion::default(),
            candidates: vec![CandidatePattern::new("self", pattern.to_vec())],
        },
    ]
}

/// Streams a well-formed detect exchange on a raw connection.
fn assert_raw_exchange_completes(stream: &mut TcpStream, case: &str) {
    let pattern = pattern();
    let y = trace(pattern.len() * 10);
    send(
        stream,
        &Request::DetectStart {
            pattern,
            algo: None,
            criterion: DetectionCriterion::default(),
        },
    );
    send(stream, &Request::DetectChunk { samples: y.clone() });
    send(stream, &Request::DetectFinish);
    match receive(stream) {
        Response::Detection(d) => assert_eq!(d.cycles, y.len() as u64, "{case}"),
        other => panic!("{case}: expected detection, got {other:?}"),
    }
}

#[test]
fn detect_frames_out_of_order_get_bad_sequence() {
    let handle = start(quick_limits());

    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    protocol::write_greeting(&mut stream).unwrap();
    protocol::read_greeting(&mut stream).expect("greeting echoed");

    // A bad sequence is a caller bug, not a transport fault: after each
    // case the same connection must still complete a well-formed
    // exchange.
    send(
        &mut stream,
        &Request::DetectChunk {
            samples: vec![1.0, 2.0],
        },
    );
    expect_error(&mut stream, ErrorCode::BadSequence, "chunk without start");
    assert_raw_exchange_completes(&mut stream, "chunk without start");

    // Every start frame is refused while an exchange is open, and the
    // open exchange is left intact.
    let pattern = pattern();
    for second in start_frames(&pattern) {
        let case = format!("{second:?} while open");
        let [first, ..] = start_frames(&pattern);
        send(&mut stream, &first);
        send(
            &mut stream,
            &Request::DetectChunk {
                samples: trace(pattern.len() * 4),
            },
        );
        send(&mut stream, &second);
        expect_error(&mut stream, ErrorCode::BadSequence, &case);
        send(&mut stream, &Request::DetectFinish);
        assert!(
            matches!(receive(&mut stream), Response::Detection(_)),
            "{case}"
        );
        assert_raw_exchange_completes(&mut stream, &case);
    }

    // Every start frame with a constant pattern fails the detector build.
    for start in start_frames(&[true; 16]) {
        let case = format!("{start:?}");
        send(&mut stream, &start);
        expect_error(&mut stream, ErrorCode::Cpa, &case);
        assert_raw_exchange_completes(&mut stream, &case);
    }

    handle.shutdown();
}

/// A sequential exchange checkpointing every cycle returns a trail too
/// large for one frame. The server must answer `FrameTooLarge` rather
/// than write a frame the client refuses, so the connection stays in
/// sync for the next request.
#[test]
fn oversized_response_is_refused_and_the_session_stays_in_sync() {
    let handle = start(quick_limits());
    let pattern: Vec<bool> = pattern().into_iter().take(63).collect();
    // Unmarked: xorshift noise with no watermark in it.
    let mut s = 0x5EED_F00D_0DD5_u64;
    let y: Vec<f64> = (0..100_000)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect();

    let mut client = Client::connect(handle.local_addr()).expect("connect");
    match client.detect_sequential(
        &pattern,
        DetectOptions::default(),
        SequentialOptions::every(1),
        &y,
    ) {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, ErrorCode::FrameTooLarge),
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
    client.ping().expect("ping on the same connection");

    assert_still_serving(&handle);
    handle.shutdown();
}

#[test]
fn cycle_budget_is_enforced_per_exchange() {
    let handle = start(ServeLimits {
        max_cycles: 1000,
        ..quick_limits()
    });

    let mut client = Client::connect(handle.local_addr()).expect("connect");
    match client.detect(&pattern(), DetectOptions::default(), &trace(1001)) {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, ErrorCode::TooManyCycles),
        other => panic!("expected TooManyCycles, got {other:?}"),
    }

    // A trace inside the budget still gets served.
    assert_still_serving_cycles(&handle, 640);
    handle.shutdown();
}

#[test]
fn shutdown_during_in_flight_detect_drains_cleanly() {
    let handle = start(quick_limits());
    let addr = handle.local_addr();

    let pattern = pattern();
    let y = trace(pattern.len() * 50);

    // Drive an exchange manually through the protocol module so the
    // shutdown can be interleaved between its chunks.
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    protocol::write_greeting(&mut raw).unwrap();
    protocol::read_greeting(&mut raw).expect("greeting echoed");
    let (ty, payload) = Request::DetectStart {
        pattern: pattern.clone(),
        algo: None,
        criterion: DetectionCriterion::default(),
    }
    .encode();
    protocol::write_frame(&mut raw, ty, &payload).unwrap();
    let half = y.len() / 2;
    let (ty, payload) = Request::DetectChunk {
        samples: y[..half].to_vec(),
    }
    .encode();
    protocol::write_frame(&mut raw, ty, &payload).unwrap();

    // Round-trip a Status on the same connection: frames are processed
    // in order, so once it answers, the exchange is open server-side
    // and the drain below cannot outrun the DetectStart.
    let (ty, payload) = Request::Status.encode();
    protocol::write_frame(&mut raw, ty, &payload).unwrap();
    let (ty, payload) = protocol::read_frame(&mut raw, 1 << 16).expect("status frame");
    assert!(matches!(
        Response::decode(ty, &payload).expect("decodes"),
        Response::Status(_)
    ));

    // Begin the drain from another connection while the exchange above
    // is only half streamed.
    let mut killer = Client::connect(addr).expect("connect killer");
    killer.shutdown().expect("shutdown ack");
    assert!(handle.is_draining());

    // The in-flight exchange must still be allowed to finish.
    let (ty, payload) = Request::DetectChunk {
        samples: y[half..].to_vec(),
    }
    .encode();
    protocol::write_frame(&mut raw, ty, &payload).unwrap();
    let (ty, payload) = Request::DetectFinish.encode();
    protocol::write_frame(&mut raw, ty, &payload).unwrap();
    let (ty, payload) = protocol::read_frame(&mut raw, 1 << 16).expect("result during drain");
    let wire = match Response::decode(ty, &payload).expect("decodes") {
        Response::Detection(d) => d,
        other => panic!("expected detection, got {other:?}"),
    };
    let local = Detector::new(&pattern)
        .expect("detector")
        .detect(&y)
        .expect("local detect");
    assert_eq!(wire.result, local);
    drop(raw);

    let final_status = handle.wait();
    assert!(final_status.draining);
    assert_eq!(
        final_status.active_sessions, 0,
        "drain left sessions behind"
    );
    assert!(final_status.served >= 1);

    // And the port must actually be closed.
    assert!(Client::connect(addr).and_then(|mut c| c.ping()).is_err());
}

#[test]
fn corpus_detect_reports_missing_trace_and_survives() {
    let handle = start(quick_limits());

    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let bogus = PathBuf::from("/nonexistent/corpus/path");
    match client.detect_corpus(
        bogus.to_str().unwrap(),
        "no_such_trace",
        &pattern(),
        DetectOptions::default(),
    ) {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Corpus),
        other => panic!("expected Corpus error, got {other:?}"),
    }

    assert_still_serving(&handle);
    handle.shutdown();
}
