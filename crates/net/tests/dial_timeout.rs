//! `request_timeout_millis` bounds a call that has to dial: a dial the
//! server never completes fails within the timeout instead of waiting
//! out the kernel's SYN retries (about two minutes on Linux).

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use geomancy_net::{Client, ClientConfig};

/// A listener that never accepts, with its accept queue filled, so the
/// kernel drops every further SYN to it: the next dial to `addr` hangs.
/// Returns `None` if the queue did not fill within 4,096 connections.
fn unanswered_listener() -> Option<(TcpListener, Vec<TcpStream>, SocketAddr)> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let mut queued = Vec::new();
    for _ in 0..4096 {
        match TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
            Ok(stream) => queued.push(stream),
            Err(_) => return Some((listener, queued, addr)),
        }
    }
    None
}

#[test]
fn a_dial_the_server_never_completes_fails_within_the_request_timeout() {
    let Some((_listener, _queued, addr)) = unanswered_listener() else {
        eprintln!("the accept queue never filled: no dial hangs on this host");
        return;
    };
    let started = Instant::now();
    let dialled = Client::connect(
        addr,
        ClientConfig {
            pool_size: 1,
            request_timeout_millis: 300,
            ..ClientConfig::default()
        },
    );
    let took = started.elapsed();
    assert!(dialled.is_err(), "a dial to a full accept queue completed");
    assert!(
        took < Duration::from_secs(5),
        "the dial took {took:?}, past its 300 ms timeout"
    );
}
