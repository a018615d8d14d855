//! Soak and fault-injection tests of the event-driven (silio/epoll)
//! server: many concurrent clients over Unix and TCP sockets, verified
//! against a sequential in-process oracle, plus hostile clients that must
//! not wedge the event loop.
//!
//! Everything here is Linux-only in substance (the async server falls
//! back to the threaded one elsewhere), but the assertions are the same
//! either way: `Server::bind_with` resolves the kind, and the responses
//! must match the oracle byte for byte regardless.

use sil_engine::service::{
    ErrorKind, RemoteService, Request, Response, Server, ServerKind, ServerOptions, Service,
};
use sil_engine::{Addr, Engine, ProcessOptions, ProgramReport, ServerHandle};
use sil_workloads::Workload;
use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;
use std::time::Duration;

fn temp_socket(name: &str) -> Addr {
    let path = std::env::temp_dir().join(format!("silio-test-{}-{name}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    Addr::Unix(path)
}

fn spawn_async(addr: &Addr) -> (Arc<Engine>, ServerHandle, ServerKind) {
    let service = Arc::new(Engine::default());
    let server = Server::bind_with(
        addr,
        service.clone(),
        ServerOptions {
            kind: ServerKind::Async,
            workers: 0,
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let kind = server.kind();
    if silio::SUPPORTED {
        assert_eq!(kind, ServerKind::Async, "Linux must select the event loop");
    }
    (service, server.spawn(), kind)
}

/// A small but varied request set: a few workloads at small sizes, with
/// one repeated so warm hits occur under concurrency.
fn soak_sources() -> Vec<String> {
    let mut sources: Vec<String> = [
        Workload::TreeSum,
        Workload::ListSum,
        Workload::AddAndReverse,
        Workload::Bisort,
    ]
    .iter()
    .map(|w| w.source(3))
    .collect();
    sources.push(Workload::TreeSum.source(3)); // repeat: a guaranteed warm hit
    sources
}

fn oracle_reports(sources: &[String]) -> Vec<ProgramReport> {
    let oracle = Engine::default();
    sources
        .iter()
        .map(|src| {
            oracle
                .process_source(src, &ProcessOptions::default())
                .unwrap()
        })
        .collect()
}

/// Drive `clients` concurrent connections through the daemon at `addr`,
/// asserting every response digest-matches the oracle.
fn soak(addr: &str, clients: usize) {
    let sources = soak_sources();
    let expected = oracle_reports(&sources);
    std::thread::scope(|scope| {
        for client in 0..clients {
            let addr = &addr;
            let sources = &sources;
            let expected = &expected;
            scope.spawn(move || {
                let remote =
                    RemoteService::connect_with_timeout(addr, Some(Duration::from_secs(60)))
                        .unwrap();
                for (index, (src, want)) in sources.iter().zip(expected).enumerate() {
                    let got = remote
                        .process_source(src, &ProcessOptions::default())
                        .unwrap();
                    assert_eq!(
                        got.analysis_digest, want.analysis_digest,
                        "client {client} request {index} diverged from the oracle"
                    );
                    assert_eq!(got.fingerprint, want.fingerprint);
                    assert_eq!(got.name, want.name);
                }
            });
        }
    });
}

/// ≥64 concurrent clients over a Unix socket: every response matches the
/// sequential oracle, the server's connection counters add up, and the
/// socket file is removed on shutdown.
#[test]
fn async_soak_unix_64_clients_match_oracle() {
    let addr = temp_socket("soak64");
    let (_service, handle, kind) = spawn_async(&addr);
    let clients = 64;
    soak(&handle.addr().to_string(), clients);

    // Server stats travel in-band and account for every soak connection.
    let remote = RemoteService::connect(&handle.addr().to_string()).unwrap();
    let (_, _, _, server) = remote.service_stats().unwrap();
    let server = server.expect("daemon stats carry server counters");
    assert_eq!(server.kind, kind.name());
    assert!(
        server.accepted >= clients as u64,
        "{} accepted",
        server.accepted
    );
    assert!(server.active >= 1, "this stats connection is active");
    drop(remote);

    handle.shutdown();
    let Addr::Unix(path) = addr else {
        unreachable!()
    };
    assert!(!path.exists(), "socket file must be cleaned up");
}

/// The same soak over TCP.
#[test]
fn async_soak_tcp_64_clients_match_oracle() {
    let service = Arc::new(Engine::default());
    let server = Server::bind_with(
        &Addr::Tcp("127.0.0.1:0".into()),
        service,
        ServerOptions {
            kind: ServerKind::Async,
            workers: 0,
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let handle = server.spawn();
    soak(&handle.addr().to_string(), 64);
    handle.shutdown();
}

/// Hostile clients: malformed lines are answered in place, partial lines
/// followed by a disconnect tear down only their own connection, and a
/// clean client still gets oracle-identical answers afterwards.
#[test]
fn async_faults_do_not_wedge_the_event_loop() {
    let addr = temp_socket("faults");
    let (_service, handle, _) = spawn_async(&addr);
    let Addr::Unix(path) = handle.addr().clone() else {
        unreachable!()
    };

    // 1. Malformed line: answered with a malformed error, connection
    //    still serves a well-formed request afterwards.
    {
        let mut stream = std::os::unix::net::UnixStream::connect(&path).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        stream.write_all(b"this is not json\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        match Response::decode(line.trim()).unwrap() {
            Response::Error { error, .. } => assert_eq!(error.kind, ErrorKind::Malformed),
            other => panic!("{other:?}"),
        }
        stream
            .write_all((Request::stats().encode() + "\n").as_bytes())
            .unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(matches!(
            Response::decode(line.trim()).unwrap(),
            Response::Stats { .. }
        ));
    }

    // 2. Mid-request disconnects: a partial line with no newline, a valid
    //    request followed by an immediate hangup (the worker's response
    //    finds the connection gone), and a bare connect-then-drop.
    for _ in 0..8 {
        let mut stream = std::os::unix::net::UnixStream::connect(&path).unwrap();
        stream.write_all(b"{\"protocol_version\":2,\"ty").unwrap();
        drop(stream);

        let mut stream = std::os::unix::net::UnixStream::connect(&path).unwrap();
        let request = Request::analyze(Workload::TreeSum.source(3)).encode() + "\n";
        stream.write_all(request.as_bytes()).unwrap();
        drop(stream);

        let _ = std::os::unix::net::UnixStream::connect(&path).unwrap();
    }

    // 3. A pipelined burst on one connection: responses come back one per
    //    request, in order (the per-connection FIFO).
    {
        let mut stream = std::os::unix::net::UnixStream::connect(&path).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let sources = soak_sources();
        let mut burst = String::new();
        for src in &sources {
            burst.push_str(&Request::process(src, ProcessOptions::default()).encode());
            burst.push('\n');
        }
        stream.write_all(burst.as_bytes()).unwrap();
        let expected = oracle_reports(&sources);
        for (index, want) in expected.iter().enumerate() {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            match Response::decode(line.trim()).unwrap() {
                Response::Report { report, .. } => {
                    assert_eq!(
                        report.analysis_digest, want.analysis_digest,
                        "pipelined slot {index} out of order or wrong"
                    );
                    assert_eq!(report.name, want.name, "slot {index}");
                }
                other => panic!("slot {index}: {other:?}"),
            }
        }
    }

    // 4. After all that, a clean client still matches the oracle.
    soak(&handle.addr().to_string(), 3);
    handle.shutdown();
    assert!(!path.exists(), "socket file must be cleaned up");
}

/// Protocol negotiation and shutdown semantics through the async server:
/// wrong-version shutdowns are refused, a well-versioned shutdown stops
/// the daemon after acknowledging.
#[test]
fn async_shutdown_and_version_negotiation() {
    let addr = temp_socket("shutdown");
    let (_service, handle, _) = spawn_async(&addr);
    let remote = RemoteService::connect(&handle.addr().to_string()).unwrap();

    match remote.call(Request::shutdown().with_version(0)) {
        Response::Error { error, .. } => assert_eq!(error.kind, ErrorKind::Protocol),
        other => panic!("{other:?}"),
    }
    assert!(
        remote.handshake().is_ok(),
        "the daemon must survive a wrong-version shutdown"
    );

    match remote.call(Request::shutdown()) {
        Response::ShuttingDown { .. } => {}
        other => panic!("{other:?}"),
    }
    let joiner = std::thread::spawn(move || handle.shutdown());
    joiner.join().unwrap();
    let Addr::Unix(path) = addr else {
        unreachable!()
    };
    assert!(!path.exists());
}

/// The async and threaded servers answer byte-identical response lines
/// for the same requests (the protocol-invariance acceptance criterion,
/// also CI-checked end-to-end through the binaries).
#[test]
fn async_and_threaded_answer_identical_bytes() {
    let make = |kind: ServerKind, name: &str| {
        let service = Arc::new(Engine::default());
        let server = Server::bind_with(
            &temp_socket(name),
            service,
            ServerOptions {
                kind,
                workers: 0,
                ..ServerOptions::default()
            },
        )
        .unwrap();
        server.spawn()
    };
    let threaded = make(ServerKind::Threaded, "bytes-threaded");
    let asynced = make(ServerKind::Async, "bytes-async");

    let exchange = |handle: &ServerHandle, lines: &[String]| -> Vec<String> {
        let Addr::Unix(path) = handle.addr().clone() else {
            unreachable!()
        };
        let mut stream = std::os::unix::net::UnixStream::connect(&path).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut replies = Vec::new();
        for line in lines {
            stream.write_all((line.clone() + "\n").as_bytes()).unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            replies.push(reply.trim_end().to_string());
        }
        replies
    };

    let mut requests: Vec<String> = Workload::ALL
        .iter()
        .take(5)
        .map(|w| Request::process(w.source(3), ProcessOptions::default()).encode())
        .collect();
    requests.push("garbage that is not json".to_string());
    requests.push(Request::analyze("program broken(").encode());
    requests.push(Request::stats().with_version(99).encode());

    let from_threaded = exchange(&threaded, &requests);
    let from_async = exchange(&asynced, &requests);
    assert_eq!(
        from_threaded, from_async,
        "the two servers must answer identical bytes"
    );

    threaded.shutdown();
    asynced.shutdown();
}
