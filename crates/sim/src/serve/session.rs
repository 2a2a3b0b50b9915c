//! Per-connection request loop: parses wire lines, dispatches verbs,
//! and — for `subscribe` — switches the connection into streaming mode
//! until the job's `done` line has been delivered.

use super::protocol::{fnv1a64, format_line, normalize_spec, parse_line, Request};
use super::registry::{Admitted, Missing, Outcome, ResultSnapshot, Shared, StreamMsg, SubmitError};
use super::{JobRunner, JobSpec, JobState};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Longest accepted request line; a client exceeding it is dropped.
const MAX_LINE: usize = 64 * 1024;
/// Read poll granularity — how often an idle session re-checks the
/// shutdown flag.
const READ_POLL: Duration = Duration::from_millis(50);

/// Buffered line reader that survives read timeouts without losing
/// partial lines (a timeout mid-line keeps the bytes buffered).
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl LineReader {
    fn next_line(&mut self, shared: &Shared) -> Option<String> {
        loop {
            if let Some(i) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=i).collect();
                return Some(String::from_utf8_lossy(&line).into_owned());
            }
            if self.buf.len() > MAX_LINE {
                return None;
            }
            let mut tmp = [0u8; 4096];
            match self.stream.read(&mut tmp) {
                Ok(0) => return None,
                Ok(n) => self.buf.extend_from_slice(&tmp[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if shared.is_shutting_down() {
                        return None;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return None,
            }
        }
    }
}

/// Writes `lines`, each with its newline, in one call.
fn send_lines<'a>(stream: &mut TcpStream, lines: impl IntoIterator<Item = &'a str>) -> bool {
    let mut buf = String::new();
    for line in lines {
        buf.push_str(line);
        buf.push('\n');
    }
    stream.write_all(buf.as_bytes()).is_ok()
}

fn send(stream: &mut TcpStream, line: &str) -> bool {
    send_lines(stream, [line])
}

fn send_err(stream: &mut TcpStream, code: &str, msg: &str) -> bool {
    send(
        stream,
        &format_line(
            "err",
            &[("code", code.to_string()), ("msg", msg.to_string())],
        ),
    )
}

/// The reply to a request naming job `id`, whose record is not held.
fn send_missing(stream: &mut TcpStream, id: &str, missing: Missing) -> bool {
    match missing {
        Missing::Unknown => send_err(stream, "unknown_job", &format!("unknown job {id}")),
        Missing::Expired => send_err(
            stream,
            "expired",
            &format!("{id} finished and its record was dropped: resubmit its spec"),
        ),
    }
}

/// Runs one client connection to completion. All I/O errors simply end
/// the session; daemon state is owned elsewhere.
pub(crate) fn handle_connection(
    stream: TcpStream,
    shared: Arc<Shared>,
    runner: Arc<dyn JobRunner>,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = LineReader {
        stream,
        buf: Vec::new(),
    };

    while let Some(raw) = reader.next_line(&shared) {
        let request = match parse_line(&raw) {
            Ok(Some(request)) => request,
            Ok(None) => continue,
            Err(msg) => {
                if send_err(&mut writer, "bad_request", &msg) {
                    continue;
                }
                return;
            }
        };
        let keep_going = match request.verb.as_str() {
            "ping" => send(&mut writer, &format_line("ok", &[("pong", "1".into())])),
            "submit" => handle_submit(&mut writer, &shared, runner.as_ref(), &request),
            "status" => handle_status(&mut writer, &shared, &request),
            "cancel" => handle_cancel(&mut writer, &shared, &request),
            "result" => handle_result(&mut writer, &shared, &request),
            "subscribe" => handle_subscribe(&mut writer, &shared, &request),
            "shutdown" => {
                let ok = send(
                    &mut writer,
                    &format_line("ok", &[("state", "shutting_down".into())]),
                );
                shared.begin_shutdown();
                ok
            }
            verb => send_err(&mut writer, "unknown_verb", &format!("unknown verb {verb}")),
        };
        if !keep_going {
            return;
        }
    }
}

fn job_id(request: &Request) -> Result<&str, String> {
    request
        .get("id")
        .ok_or_else(|| "missing id field".to_string())
}

/// The first key that `fields` names twice, if any.
fn duplicate_key(fields: &[(String, String)]) -> Option<&str> {
    let mut seen: Vec<&str> = Vec::new();
    for (key, _) in fields {
        if seen.contains(&key.as_str()) {
            return Some(key);
        }
        seen.push(key);
    }
    None
}

fn handle_submit(
    writer: &mut TcpStream,
    shared: &Shared,
    runner: &dyn JobRunner,
    request: &Request,
) -> bool {
    // The cache key sorts the fields, so a key given twice would make
    // `seed=1;seed=2` and `seed=2;seed=1` one spec.
    if let Some(key) = duplicate_key(&request.fields) {
        return send_err(writer, "bad_spec", &format!("duplicate field {key:?}"));
    }
    let Some(kind) = request.get("kind") else {
        return send_err(writer, "bad_spec", "missing kind field");
    };
    let spec = JobSpec {
        kind: kind.to_string(),
        fields: request
            .fields
            .iter()
            .filter(|(k, _)| k != "kind")
            .cloned()
            .collect(),
    };
    let prepared = match runner.prepare(&spec) {
        Ok(prepared) => prepared,
        Err(msg) => return send_err(writer, "bad_spec", &msg),
    };
    let key = normalize_spec(&spec.kind, &spec.fields);
    let spec_hash = fnv1a64(key.as_bytes());
    match shared.submit(key, prepared.seed, spec_hash, prepared.run) {
        Ok(Admitted { id, cached }) => {
            let state = if cached {
                JobState::Done
            } else {
                JobState::Queued
            };
            let mut fields = vec![
                ("id", id),
                ("state", state.as_wire().into()),
                ("spec_hash", format!("{spec_hash:016x}")),
            ];
            if cached {
                fields.push(("cached", "1".into()));
            }
            send(writer, &format_line("ok", &fields))
        }
        Err(SubmitError::Full { retry_after_ms }) => send(
            writer,
            &format_line(
                "err",
                &[
                    ("code", "queue_full".into()),
                    ("retry_after_ms", retry_after_ms.to_string()),
                ],
            ),
        ),
        Err(SubmitError::ShuttingDown) => {
            send_err(writer, "shutting_down", "daemon is shutting down")
        }
    }
}

fn handle_status(writer: &mut TcpStream, shared: &Shared, request: &Request) -> bool {
    let id = match job_id(request) {
        Ok(id) => id,
        Err(msg) => return send_err(writer, "bad_request", &msg),
    };
    match shared.status(id) {
        Ok(snapshot) => send(
            writer,
            &format_line(
                "ok",
                &[
                    ("id", id.to_string()),
                    ("state", snapshot.state.as_wire().into()),
                    ("queued", snapshot.queued.to_string()),
                    ("running", snapshot.running.to_string()),
                ],
            ),
        ),
        Err(missing) => send_missing(writer, id, missing),
    }
}

fn handle_cancel(writer: &mut TcpStream, shared: &Shared, request: &Request) -> bool {
    let id = match job_id(request) {
        Ok(id) => id,
        Err(msg) => return send_err(writer, "bad_request", &msg),
    };
    match shared.cancel(id) {
        Ok(state) => {
            let wire = if state.is_terminal() {
                state.as_wire()
            } else {
                // Token tripped; the worker confirms within one
                // control window.
                "cancelling"
            };
            send(
                writer,
                &format_line("ok", &[("id", id.to_string()), ("state", wire.into())]),
            )
        }
        Err(missing) => send_missing(writer, id, missing),
    }
}

fn handle_result(writer: &mut TcpStream, shared: &Shared, request: &Request) -> bool {
    let id = match job_id(request) {
        Ok(id) => id,
        Err(msg) => return send_err(writer, "bad_request", &msg),
    };
    match shared.result(id) {
        Ok(ResultSnapshot::Ended(ending)) => match &ending.outcome {
            Outcome::Done(_) => send(writer, &format_line("ok", &ending.fields(id))),
            Outcome::Failed(msg) => send_err(writer, "job_failed", msg),
            Outcome::Cancelled => send_err(writer, "job_cancelled", "job was cancelled"),
        },
        Ok(ResultSnapshot::Live(state)) => send(
            writer,
            &format_line(
                "err",
                &[
                    ("code", "not_finished".into()),
                    ("state", state.as_wire().into()),
                ],
            ),
        ),
        Err(missing) => send_missing(writer, id, missing),
    }
}

fn handle_subscribe(writer: &mut TcpStream, shared: &Shared, request: &Request) -> bool {
    let id = match job_id(request) {
        Ok(id) => id,
        Err(msg) => return send_err(writer, "bad_request", &msg),
    };
    let (tx, rx) = mpsc::channel();
    let (events, done) = match shared.subscribe(id, tx) {
        Ok(sub) => sub,
        Err(missing) => return send_missing(writer, id, missing),
    };
    let ack = format_line("ok", &[("id", id.to_string()), ("subscribed", "1".into())]);
    let backlog = events.iter().chain(&done).map(String::as_str);
    if !send_lines(writer, std::iter::once(ack.as_str()).chain(backlog)) {
        return false;
    }
    if done.is_some() {
        // The job had already ended: its `done` line closed the backlog
        // and the connection drops straight back to request mode.
        return true;
    }
    loop {
        match rx.recv_timeout(READ_POLL) {
            Ok(StreamMsg::Event(line)) => {
                if !send(writer, &line) {
                    return false;
                }
            }
            Ok(StreamMsg::Done(line)) => return send(writer, &line),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // Shutdown cancels every live job, so Done is coming;
                // keep draining until it arrives.
                continue;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return true,
        }
    }
}
