//! The event-driven TCP transport holds the same contract as stdio:
//!
//! 1. **Golden replay** — the checked-in session script replayed over a
//!    real socket, with metrics enabled, produces a transcript
//!    byte-identical to the checked-in golden file (and therefore to
//!    the stdio replay of the same script).
//! 2. **Pipelining** — a client that writes the entire script in one
//!    syscall gets every response, in order, unchanged: batching is a
//!    transport detail, not a semantic one.
//! 3. **Torn frames and slow loris** — a connection that dies
//!    mid-frame is counted and dropped without disturbing other
//!    connections; a peer that sends nothing is timed out by the
//!    readiness loop.
//! 4. **Drain** — `shutdown` over TCP finishes the in-flight
//!    transcript, then every shard worker exits and can be joined.
//! 5. **Wakeups** — a shard blocked in `poll` is woken by a push an
//!    append on another shard queued, drains a large frame to a slow
//!    reader, and answers a new connection beside 1024 quiet ones.
//!    Each of these reads under a hard deadline, so a lost wakeup
//!    fails the test instead of hanging it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use viva::Theme;
use viva_server::protocol::Command;
use viva_server::{serve_tcp, Push, Server, ServerLimits};
use viva_trace::{ContainerKind, RecoveryMode, TraceBuilder};

fn data(file: &str) -> String {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/data");
    std::fs::read_to_string(format!("{dir}/{file}")).expect("checked-in test data")
}

/// Starts a metrics-enabled server on an ephemeral port.
fn start(
    limits: ServerLimits,
    workers: usize,
) -> (Arc<Server>, std::net::SocketAddr, Vec<std::thread::JoinHandle<()>>) {
    let server = Arc::new(Server::with_metrics(limits));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("local addr");
    let handles = serve_tcp(listener, workers, Arc::clone(&server));
    (server, addr, handles)
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream
}

/// Replays `script` over one connection, writing `chunk_lines` request
/// lines per syscall, and returns the response transcript.
fn replay_tcp(addr: std::net::SocketAddr, script: &str, chunk_lines: usize) -> String {
    let stream = connect(addr);
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let requests: Vec<&str> = script.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut transcript = String::new();
    for batch in requests.chunks(chunk_lines.max(1)) {
        let mut frame = String::new();
        for line in batch {
            frame.push_str(line);
            frame.push('\n');
        }
        // One syscall carries the whole batch; the shard must answer
        // every frame it finds in the read buffer.
        writer.write_all(frame.as_bytes()).expect("write batch");
        for _ in batch {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read response");
            transcript.push_str(&line);
        }
    }
    transcript
}

/// The server-level stats line, for counter assertions.
fn stats_line(addr: std::net::SocketAddr) -> String {
    let mut stream = connect(addr);
    stream
        .write_all(format!("{}\n", Command::Stats { session: None, reset: false }.encode()).as_bytes())
        .expect("write stats");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read stats");
    line
}

fn counter(stats: &str, name: &str) -> u64 {
    // Counters encode as a {"name":value,...} object in the stats block.
    let needle = format!("\"{name}\":");
    let at = match stats.find(&needle) {
        Some(at) => at + needle.len(),
        None => return 0,
    };
    stats[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or(0)
}

/// Golden replay over a real socket, metrics on, byte-identical to the
/// checked-in transcript — line-at-a-time AND fully pipelined.
#[test]
fn golden_transcript_replays_byte_identically_over_tcp() {
    let script = data("server_session.script");
    let golden = data("server_session.golden");

    let (_one, addr, _handles) = start(ServerLimits::default(), 2);
    let line_at_a_time = replay_tcp(addr, &script, 1);
    assert_eq!(
        line_at_a_time, golden,
        "TCP replay must match the checked-in golden transcript"
    );

    // A fresh server, the whole script in one write: pipelined batching
    // must not change a byte either.
    let (_two, addr, _handles) = start(ServerLimits::default(), 2);
    let pipelined = replay_tcp(addr, &script, usize::MAX);
    assert_eq!(pipelined, golden, "pipelined replay must be byte-identical");
}

/// A connection that dies mid-frame: complete frames before the tear
/// are answered, the residue is counted as torn, other connections are
/// untouched.
#[test]
fn torn_frame_is_counted_and_other_connections_survive() {
    let (_server, addr, _handles) = start(ServerLimits::default(), 2);

    let mut torn = connect(addr);
    torn.write_all(b"{\"cmd\":\"ping\"}\n{\"cmd\":\"pi").expect("write torn");
    let mut reader = BufReader::new(torn.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read pong");
    assert!(line.contains("pong"), "complete frame before the tear is answered: {line}");
    torn.shutdown(std::net::Shutdown::Write).expect("half-close");
    // The server drops the connection after counting the residue.
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("drained to EOF");
    assert_eq!(rest, "", "no response for a torn frame");

    // A healthy connection on the same server still works (the stats
    // probe below is itself a fresh connection), and the tear was
    // counted exactly once.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let stats = stats_line(addr);
        if counter(&stats, "server.torn_frames") == 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "torn frame never counted: {stats}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A peer that connects and never sends a complete frame is timed out
/// by the readiness loop (slow-loris defense).
#[test]
fn slow_loris_connection_is_timed_out() {
    let (_server, addr, _handles) = start(
        ServerLimits { io_timeout_ms: Some(50), ..ServerLimits::default() },
        1,
    );
    let mut loris = connect(addr);
    loris.write_all(b"{\"cmd\":\"pi").expect("trickle");
    // Well past the timeout the server must have dropped us: the read
    // side sees EOF, not a hang.
    let mut reader = BufReader::new(loris.try_clone().expect("clone"));
    let mut out = String::new();
    reader.read_to_string(&mut out).expect("EOF after timeout");
    assert_eq!(out, "", "no response for an incomplete frame");

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let stats = stats_line(addr);
        if counter(&stats, "server.io_timeouts") >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "io timeout never counted: {stats}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// `shutdown` over TCP answers the in-flight transcript, then every
/// shard worker exits cleanly.
#[test]
fn drain_over_tcp_joins_all_shard_workers() {
    let (_server, addr, handles) = start(ServerLimits::default(), 4);
    let mut stream = connect(addr);
    stream
        .write_all(format!("{}\n{}\n", Command::Ping.encode(), Command::Shutdown.encode()).as_bytes())
        .expect("write drain");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("pong");
    assert!(line.contains("pong"), "{line}");
    line.clear();
    reader.read_line(&mut line).expect("shutdown ack");
    assert!(line.contains("shutdown"), "{line}");
    for h in handles {
        h.join().expect("shard worker exits after drain");
    }
}

/// Serves `server` on its own fresh listener with one shard, so a test
/// knows which shard owns which connection.
fn one_shard(server: &Arc<Server>) -> (std::net::SocketAddr, Vec<std::thread::JoinHandle<()>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("local addr");
    (addr, serve_tcp(listener, 1, Arc::clone(server)))
}

/// Writes one command line and reads one line back.
fn roundtrip(reader: &mut BufReader<TcpStream>, cmd: &Command) -> String {
    reader.get_mut().write_all(format!("{}\n", cmd.encode()).as_bytes()).expect("write command");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read reply");
    line
}

/// A subscriber alone on an idle shard gets the delta of an append
/// sent on another shard: the append's push wakes the subscriber's
/// shard out of `poll`.
#[test]
fn push_from_another_shard_wakes_an_idle_subscriber() {
    let server = Arc::new(Server::with_metrics(ServerLimits::default()));
    let (appender_addr, _appender_shard) = one_shard(&server);
    let (subscriber_addr, _subscriber_shard) = one_shard(&server);

    let mut appender = BufReader::new(connect(appender_addr));
    let base = "span,0.0,10.0\ncontainer,1,0,host,h0\ncontainer,2,0,host,h1\n\
                metric,0,MFlop/s,power\nvar,1.0,1,0,100.0";
    let ack = roundtrip(
        &mut appender,
        &Command::Append { session: "live".into(), seq: 1, text: base.into() },
    );
    assert!(ack.contains("\"appended\""), "{ack}");

    let mut subscriber = BufReader::new(connect(subscriber_addr));
    let reply =
        roundtrip(&mut subscriber, &Command::Subscribe { session: "live".into(), from_seq: None });
    assert!(reply.contains("\"subscribed\""), "{reply}");
    let mut snapshot = String::new();
    subscriber.read_line(&mut snapshot).expect("catch-up snapshot");
    assert!(
        matches!(Push::decode(snapshot.trim_end()), Ok(Push::Delta { seq: 1, .. })),
        "{snapshot}"
    );

    // Give the subscriber's shard time to block in `poll` again; the
    // test holds without the pause, which only makes the blocked case
    // the likely one.
    std::thread::sleep(Duration::from_millis(50));
    subscriber.get_ref().set_read_timeout(Some(Duration::from_millis(500))).expect("read deadline");
    let sent = Instant::now();
    let ack = roundtrip(
        &mut appender,
        &Command::Append { session: "live".into(), seq: 2, text: "var,2.0,1,0,50.0".into() },
    );
    assert!(ack.contains("\"appended\""), "{ack}");
    let mut delta = String::new();
    subscriber.read_line(&mut delta).expect("the delta arrives within 500 ms of the append");
    assert!(sent.elapsed() < Duration::from_millis(500), "delta took {:?}", sent.elapsed());
    assert!(matches!(Push::decode(delta.trim_end()), Ok(Push::Delta { seq: 2, .. })), "{delta}");
}

/// A trace whose labelled render is well over a megabyte of SVG.
fn large_trace_csv() -> String {
    let mut b = TraceBuilder::new();
    let power = b.metric("power", "MFlop/s");
    for ci in 0..40 {
        let cluster = b
            .new_container(b.root(), format!("cluster-{ci}"), ContainerKind::Cluster)
            .expect("cluster");
        for hi in 0..100 {
            let host = b
                .new_container(cluster, format!("cluster-{ci}-host-{hi}"), ContainerKind::Host)
                .expect("host");
            b.set_variable(0.0, host, power, (10 + hi % 7) as f64).expect("power");
        }
    }
    viva_trace::export::to_csv(&b.finish(1.0))
}

/// A client that reads frames of more than a megabyte in small, slow
/// chunks gets every byte. The script pipelines a dozen renders, more
/// than the socket buffers and the write high-water mark hold, so the
/// shard must wait for `POLLOUT` between partial writes and resume
/// reading requests once the buffer drains.
#[test]
fn large_frame_reaches_a_slow_reader_intact() {
    let render = Command::Render {
        session: "big".into(),
        width: 1600.0,
        height: 1200.0,
        theme: Theme::Light,
        labels: true,
        zoom: None,
        pan_x: None,
        pan_y: None,
    };
    let mut commands = vec![Command::LoadTrace {
        session: "big".into(),
        mode: RecoveryMode::Strict,
        text: large_trace_csv(),
        trace: None,
    }];
    commands.extend(std::iter::repeat_n(render, 12));
    commands.push(Command::Ping);
    let expected: String = {
        let oracle = Server::with_metrics(ServerLimits::default());
        commands
            .iter()
            .map(|c| format!("{}\n", oracle.handle_line(&c.encode()).expect("reply")))
            .collect()
    };
    let frame = expected.lines().nth(1).map_or(0, str::len);
    assert!(frame > 1 << 20, "the frame must exceed 1 MB: {frame} bytes");

    let (_server, addr, _handles) = start(ServerLimits::default(), 2);
    let mut stream = connect(addr);
    let script: String = commands.iter().map(|c| format!("{}\n", c.encode())).collect();
    stream.write_all(script.as_bytes()).expect("write script");
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut got = Vec::with_capacity(expected.len());
    let mut chunk = [0u8; 16 << 10];
    while got.len() < expected.len() {
        assert!(
            Instant::now() < deadline,
            "stalled after {} of {} bytes",
            got.len(),
            expected.len()
        );
        let n = stream.read(&mut chunk).expect("read chunk");
        assert!(n > 0, "server closed after {} of {} bytes", got.len(), expected.len());
        got.extend_from_slice(&chunk[..n]);
        std::thread::sleep(Duration::from_micros(200));
    }
    assert!(got == expected.as_bytes(), "the slow reader's transcript differs");
}

/// With 1024 quiet connections open, a new connection's `ping` is
/// answered: the idle sockets neither starve nor stall the shards.
/// Needs about 2100 file descriptors.
#[test]
fn ping_is_answered_beside_1024_quiet_connections() {
    let (_server, addr, _handles) = start(ServerLimits::default(), 2);
    let quiet: Vec<TcpStream> = (0..1024).map(|_| connect(addr)).collect();
    let stream = connect(addr);
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("read deadline");
    let mut reader = BufReader::new(stream);
    let reply = roundtrip(&mut reader, &Command::Ping);
    assert!(reply.contains("pong"), "{reply}");
    // Every quiet connection is still open and still served.
    let mut last = BufReader::new(quiet.into_iter().last().expect("quiet connection"));
    assert!(roundtrip(&mut last, &Command::Ping).contains("pong"));
}
