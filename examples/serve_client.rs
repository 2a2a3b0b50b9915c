//! A worked `mseh serve` session over the newline-delimited wire
//! protocol: ping → submit → subscribe/stream → a repeat answered from
//! the result cache → repeats until the first job's record expires → a
//! rejected spec → cancel of a running fleet job → shutdown.
//!
//! With no arguments the example hosts its own daemon in-process on an
//! ephemeral port, so it runs standalone (and in the example sweep of
//! `scripts/check.sh`). Pass `HOST:PORT` to drive an already-running
//! `mseh serve` instead — the CI smoke gate does exactly that against
//! the release binary.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use mseh::daemon::SystemCatalog;
use mseh::sim::serve::{serve, ServeConfig, ServerHandle};

/// One protocol connection: send a line, read reply lines.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("read timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        println!(">> {line}");
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
    }

    /// Reads one line; `None` means the daemon closed the connection.
    fn recv(&mut self) -> Option<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        if n == 0 {
            return None;
        }
        let line = line.trim_end().to_string();
        println!("<< {line}");
        Some(line)
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv().expect("reply before close")
    }

    /// [`Client::roundtrip`] without echoing the exchange.
    fn quiet_roundtrip(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("recv");
        reply.trim_end().to_string()
    }
}

/// How many resubmissions may pass before the first job's record
/// expires: the daemon keeps the last 1024 finished records.
const MAX_RESUBMISSIONS: usize = 2000;

/// Pulls `key=...` out of a reply line.
fn field(reply: &str, key: &str) -> Option<String> {
    reply
        .split([' ', ';'])
        .find_map(|part| part.strip_prefix(&format!("{key}=")))
        .map(str::to_string)
}

fn main() {
    // Self-host on an ephemeral port unless an address was given.
    let addr_arg = std::env::args().nth(1);
    let hosted: Option<ServerHandle> = if addr_arg.is_none() {
        let handle = serve(
            "127.0.0.1:0",
            Arc::new(SystemCatalog),
            ServeConfig::default(),
        )
        .expect("bind ephemeral port");
        println!("self-hosted daemon on {}", handle.addr());
        Some(handle)
    } else {
        None
    };
    let addr = addr_arg.unwrap_or_else(|| hosted.as_ref().expect("hosted").addr().to_string());

    let mut client = Client::connect(&addr);
    client.roundtrip("ping");

    // A quick single-platform job, watched end to end.
    let submit = "submit kind=single;system=B;env=indoor;days=0.5;seed=9";
    let reply = client.roundtrip(submit);
    let id = field(&reply, "id").expect("job id");
    client.send(&format!("subscribe id={id}"));
    while let Some(line) = client.recv() {
        if line.starts_with("done ") {
            break;
        }
    }
    let first = client.roundtrip(&format!("result id={id}"));
    let digest = field(&first, "digest").expect("digest of a done job");

    // The same spec again is answered from the result cache: done at
    // once, with the first run's digest.
    let reply = client.roundtrip(submit);
    assert_eq!(field(&reply, "cached").as_deref(), Some("1"), "{reply}");
    let repeat_id = field(&reply, "id").expect("job id");
    let repeat = client.roundtrip(&format!("result id={repeat_id}"));
    assert_eq!(field(&repeat, "digest"), Some(digest.clone()), "{repeat}");

    // Every repeat is a finished job too, so enough of them push the
    // first job's record past the daemon's bound: its id then answers
    // `err code=expired`, and resubmitting the spec recovers the result.
    let status = format!("status id={id}");
    let mut resubmissions = 0;
    while field(&client.quiet_roundtrip(&status), "code").as_deref() != Some("expired") {
        assert!(
            resubmissions < MAX_RESUBMISSIONS,
            "{id} still held after {resubmissions} resubmissions"
        );
        let reply = client.quiet_roundtrip(submit);
        assert_eq!(field(&reply, "cached").as_deref(), Some("1"), "{reply}");
        resubmissions += 1;
    }
    println!("{id} expired after {resubmissions} more cached repeats");
    client.roundtrip(&status);
    let reply = client.roundtrip(submit);
    let again = field(&reply, "id").expect("job id");
    let recovered = client.roundtrip(&format!("result id={again}"));
    assert_eq!(field(&recovered, "digest"), Some(digest), "{recovered}");

    // Malformed specs come back as protocol errors, not disconnects.
    client.roundtrip("submit kind=fleet;system=A;population=0");

    // A fleet job big enough to catch mid-run, then cancel it.
    let reply =
        client.roundtrip("submit kind=fleet;system=A;env=outdoor;days=200;seed=3;population=5000");
    let id = field(&reply, "id").expect("job id");
    loop {
        let status = client.roundtrip(&format!("status id={id}"));
        match field(&status, "state").as_deref() {
            Some("queued") => std::thread::sleep(Duration::from_millis(20)),
            _ => break,
        }
    }
    client.roundtrip(&format!("cancel id={id}"));
    loop {
        let status = client.roundtrip(&format!("status id={id}"));
        match field(&status, "state").as_deref() {
            Some("cancelled") | Some("done") | Some("failed") => break,
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }

    // Shut the daemon down and watch the connection close cleanly.
    client.roundtrip("shutdown");
    while client.recv().is_some() {}
    if let Some(handle) = hosted {
        handle.wait();
    }
    println!("session complete");
}
