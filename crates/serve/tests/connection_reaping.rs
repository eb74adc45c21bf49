//! Regression test: the daemon must not keep a file descriptor per closed
//! connection.
//!
//! The accept loop registers a clone of every accepted stream so that
//! shutdown can sever live connections. Entries of connections that have
//! ended must be reaped, or a long-running daemon runs out of descriptors
//! (under `ulimit -n 1024`, after about a thousand connections). The test
//! counts this process's open descriptors, so it lives in its own test
//! binary where no parallel test opens or closes any.

use amle_serve::Server;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// Number of descriptors this process holds open.
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .count()
}

/// One request line out, one response line in.
fn request(stream: &mut TcpStream, line: &str) -> String {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("write request");
    let mut reply = String::new();
    BufReader::new(&*stream)
        .read_line(&mut reply)
        .expect("read reply");
    reply
}

fn ping(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    let reply = request(&mut stream, r#"{"op":"ping"}"#);
    assert!(
        reply.contains(r#""pong":true"#),
        "unexpected reply {reply:?}"
    );
}

#[test]
fn closed_connections_release_their_descriptors() {
    let server = Server::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.local_addr();
    let daemon = thread::spawn(move || server.run());

    // Warm up once so lazily opened process-wide descriptors exist before
    // the baseline is taken.
    ping(addr);
    thread::sleep(Duration::from_millis(50));
    let before = open_fds();

    for _ in 0..200 {
        ping(addr);
    }

    let deadline = Instant::now() + Duration::from_secs(20);
    let mut now_open = open_fds();
    while now_open > before + 8 {
        assert!(
            Instant::now() < deadline,
            "{now_open} descriptors open after 200 closed connections, {before} before"
        );
        thread::sleep(Duration::from_millis(20));
        now_open = open_fds();
    }

    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    let reply = request(&mut stream, r#"{"op":"shutdown"}"#);
    assert!(reply.contains(r#""shutting_down":true"#), "{reply:?}");
    daemon
        .join()
        .expect("serving thread panicked")
        .expect("clean shutdown");
}
