//! The transport side: an in-process `viva-server` behind `serve_tcp`
//! on loopback, blocking TCP clients timed at the client, and the
//! bounded-prefix response classifier.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use viva_server::{content_hash, serve_tcp, Command, Server, ServerLimits, StoredTrace};
use viva_trace::Trace;

/// Shard workers serving the listener (the box has two cores).
pub const SHARDS: usize = 2;

/// A running server: the shared state, its address and its shards.
pub struct Running {
    pub server: Arc<Server>,
    pub addr: SocketAddr,
    shards: Vec<JoinHandle<()>>,
}

impl Running {
    pub fn start(limits: ServerLimits) -> Running {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("bound address");
        let server = Arc::new(Server::new(limits));
        let shards = serve_tcp(listener, SHARDS, Arc::clone(&server));
        Running {
            server,
            addr,
            shards,
        }
    }

    pub fn connect(&self) -> Client {
        Client::connect(self.addr)
    }

    /// Connects two clients that sit on different shards: two
    /// analysts on two shards, never on one by the luck of an accept
    /// race. Nothing here is timed. The first client keeps its shard
    /// busy with a `relax` on a scratch session over `probe` while the
    /// second connects, which the other shard must then accept; the
    /// second's pong arriving before the relax reply proves it. A relax
    /// that ended too soon to tell only means another try with more
    /// steps. The scratch session and trace are gone on return.
    pub fn connect_pair(&self, probe: &Arc<Trace>) -> (Client, Client) {
        const PROBE: &str = "analystbench-probe";
        let store = self.server.store();
        store.insert(
            PROBE,
            StoredTrace {
                trace: Arc::clone(probe),
                index: None,
                hash: content_hash(PROBE.as_bytes()),
                events: 0,
            },
        );
        let attach = Command::Attach {
            session: PROBE.to_owned(),
            trace: PROBE.to_owned(),
        }
        .encode();
        let close = Command::CloseSession {
            session: PROBE.to_owned(),
        }
        .encode();
        let mut steps = 10;
        for _ in 0..8 {
            let mut first = self.connect();
            let (_, reply) = first.request(&attach);
            assert_eq!(classify(reply).token, "attached", "probe attach");
            first.send(
                &Command::Relax {
                    session: PROBE.to_owned(),
                    steps,
                }
                .encode(),
            );
            // Let the first shard pick the relax up before connecting.
            std::thread::sleep(Duration::from_millis(5));
            let mut second = self.connect();
            let (_, pong) = second.request(&Command::Ping.encode());
            assert_eq!(classify(pong).token, "pong");
            first.set_nonblocking(true);
            let busy = first.read_line().is_none();
            first.set_nonblocking(false);
            if busy {
                while first.read_line().is_none() {}
            }
            assert_eq!(classify(&first.buf).kind, Kind::Ok, "probe relax");
            let (_, reply) = first.request(&close);
            assert_eq!(classify(reply).kind, Kind::Ok, "probe close");
            if busy {
                store.remove(PROBE);
                return (first, second);
            }
            steps *= 2;
        }
        panic!("could not place two connections on two shards");
    }

    /// Drains the server over the wire and joins every shard, so no
    /// thread of the run outlives it.
    pub fn stop(self) -> Arc<Server> {
        let mut c = self.connect();
        let (_, line) = c.request(&Command::Shutdown.encode());
        assert!(line.starts_with(b"{\"ok\":\"shutdown"), "shutdown refused");
        drop(c);
        for h in self.shards {
            h.join().expect("shard worker panicked");
        }
        self.server
    }
}

/// One analyst connection. Requests are written whole and the reply
/// read to its newline; the round trip is timed here, at the client.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to the benchmark server");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        let reader = BufReader::with_capacity(1 << 18, stream.try_clone().expect("clone"));
        Client {
            writer: stream,
            reader,
            buf: Vec::with_capacity(1 << 21),
        }
    }

    pub fn set_read_timeout(&self, t: Option<Duration>) {
        self.writer.set_read_timeout(t).expect("read timeout");
    }

    /// Sends one request line; skips pushes that arrive before the
    /// reply (handing each to `on_push` with its arrival time) and
    /// returns the round trip with the reply line, without newline.
    pub fn request_with(
        &mut self,
        line: &str,
        mut on_push: impl FnMut(&[u8], Instant),
    ) -> (Duration, &[u8]) {
        let t0 = Instant::now();
        self.send(line);
        loop {
            // A read timeout set for push draining only means "keep
            // waiting" here.
            if self.read_line().is_none() {
                continue;
            }
            let now = Instant::now();
            if classify(&self.buf).kind == Kind::Push {
                on_push(&self.buf, now);
                continue;
            }
            return (now - t0, &self.buf);
        }
    }

    pub fn request(&mut self, line: &str) -> (Duration, &[u8]) {
        self.request_with(line, |_, _| {
            panic!("push on a connection with no subscription")
        })
    }

    /// Non-blocking mode for a connection that polls (the open-loop
    /// producer): reads then return `None` when nothing has arrived.
    pub fn set_nonblocking(&self, on: bool) {
        self.writer.set_nonblocking(on).expect("non-blocking mode");
    }

    pub fn send(&mut self, line: &str) {
        for mut bytes in [line.as_bytes(), b"\n"] {
            // Whole lines, also in non-blocking mode: a full socket
            // buffer only means "try again".
            while !bytes.is_empty() {
                match self.writer.write(bytes) {
                    Ok(n) => bytes = &bytes[n..],
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::yield_now()
                    }
                    Err(e) => panic!("write request: {e}"),
                }
            }
        }
    }

    /// Reads one line into the internal buffer (newline stripped).
    /// `None` on timeout; panics if the server closed the stream.
    pub fn read_line(&mut self) -> Option<&[u8]> {
        self.buf.clear();
        // A read timeout can strike mid-line: the bytes read so far stay
        // in `buf`, so keep reading until the newline arrives.
        while self.buf.last() != Some(&b'\n') {
            match self.reader.read_until(b'\n', &mut self.buf) {
                Ok(0) => panic!("server closed the connection"),
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.buf.is_empty() {
                        return None;
                    }
                }
                Err(e) => panic!("read reply: {e}"),
            }
        }
        self.buf.pop();
        Some(&self.buf)
    }
}

/// What a response line is, read from at most its first 96 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Ok,
    Err,
    Push,
    Unknown,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Class<'a> {
    pub kind: Kind,
    /// The value of the leading `ok` / `err` / `push` member.
    pub token: &'a str,
    /// For frames, the `cached` flag.
    pub cached: Option<bool>,
}

const PREFIX: usize = 96;

/// Classifies a response by scanning a bounded prefix: the leading
/// member names the kind, and for frames the `cached` flag sits right
/// after the revision. Never decodes the payload — a megabyte frame
/// costs the same as a pong.
pub fn classify(line: &[u8]) -> Class<'_> {
    let head = &line[..line.len().min(PREFIX)];
    let unknown = Class {
        kind: Kind::Unknown,
        token: "",
        cached: None,
    };
    let (kind, rest) = if let Some(r) = head.strip_prefix(b"{\"ok\":\"") {
        (Kind::Ok, r)
    } else if let Some(r) = head.strip_prefix(b"{\"err\":\"") {
        (Kind::Err, r)
    } else if let Some(r) = head.strip_prefix(b"{\"push\":\"") {
        (Kind::Push, r)
    } else {
        return unknown;
    };
    let Some(end) = rest.iter().position(|&b| b == b'"') else {
        return unknown;
    };
    let Ok(token) = std::str::from_utf8(&rest[..end]) else {
        return unknown;
    };
    let cached = if kind == Kind::Ok && token == "frame" {
        let after = &rest[end..];
        let find = |pat: &[u8]| after.windows(pat.len()).any(|w| w == pat);
        if find(b",\"cached\":true,") {
            Some(true)
        } else if find(b",\"cached\":false,") {
            Some(false)
        } else {
            return unknown;
        }
    } else {
        None
    };
    Class {
        kind,
        token,
        cached,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viva_server::{Push, Response};

    /// The classifier agrees with the full decoder on every line of
    /// the checked-in golden transcripts (read-only).
    #[test]
    fn classifier_matches_golden_transcripts() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../tests/data");
        let mut lines = 0;
        for entry in std::fs::read_dir(&dir).expect("golden directory") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_none_or(|e| e != "golden") {
                continue;
            }
            for line in std::fs::read_to_string(&path).expect("golden file").lines() {
                let class = classify(line.as_bytes());
                let expected = if Push::is_push(line) {
                    let token = match Push::decode(line).expect("golden push") {
                        Push::Delta { .. } => "delta",
                        Push::Lagging { .. } => "lagging",
                    };
                    (Kind::Push, token.to_owned(), None)
                } else {
                    match Response::decode(line).expect("golden response") {
                        Response::Error { kind, .. } => (Kind::Err, kind.token().to_owned(), None),
                        Response::Frame { cached, .. } => {
                            (Kind::Ok, "frame".to_owned(), Some(cached))
                        }
                        _ => {
                            // The token is the `ok` member's value.
                            let ok = line.split('"').nth(3).expect("ok token").to_owned();
                            (Kind::Ok, ok, None)
                        }
                    }
                };
                assert_eq!(
                    (class.kind, class.token.to_owned(), class.cached),
                    expected,
                    "{}: {}",
                    path.display(),
                    &line[..line.len().min(120)]
                );
                lines += 1;
            }
        }
        assert!(
            lines >= 30,
            "expected the golden transcripts, read {lines} lines"
        );
    }

    #[test]
    fn classifier_rejects_what_it_cannot_read() {
        assert_eq!(classify(b"").kind, Kind::Unknown);
        assert_eq!(
            classify(b"{\"ok\":\"frame\",\"revision\":1}").kind,
            Kind::Unknown
        );
        assert_eq!(classify(b"garbage").kind, Kind::Unknown);
        let c = classify(b"{\"err\":\"overloaded\",\"message\":\"busy\"}");
        assert_eq!((c.kind, c.token), (Kind::Err, "overloaded"));
    }
}
