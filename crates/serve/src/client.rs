//! A small blocking client for the daemon protocol: send one request
//! line, read one response line.
//!
//! This is what the CLI's `rustbrain client` subcommand and the CI
//! smoke harness drive; tests use it to talk to an in-process server.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;

use rb_miri::UbClass;
use rb_obs::json::fmt_str;

/// One open connection to a daemon. Requests pipeline naturally: each
/// [`Client::call`] writes a line and reads exactly one response line.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a daemon at `addr` (e.g. `127.0.0.1:4650`).
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Sends one request line and returns the response line (without
    /// its trailing newline). A closed connection is an error.
    pub fn call(&mut self, request: &str) -> io::Result<String> {
        self.writer.write_all(request.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut line = String::new();
        let read = self.reader.read_line(&mut line)?;
        if read == 0 {
            return Err(io::Error::other("daemon closed the connection"));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }
}

/// Builds a `repair` request line.
#[must_use]
pub fn repair_request(source: &str, reference: &[String], seed: u64) -> String {
    let refs: Vec<String> = reference.iter().map(|r| fmt_str(r)).collect();
    format!(
        "{{\"verb\":\"repair\",\"source\":{},\"reference\":[{}],\"seed\":{}}}",
        fmt_str(source),
        refs.join(","),
        seed
    )
}

/// Builds a `batch` request line (`classes: None` sweeps the full
/// corpus, like the CLI).
#[must_use]
pub fn batch_request(seed: u64, per_class: usize, classes: Option<&[UbClass]>) -> String {
    match classes {
        None => format!("{{\"verb\":\"batch\",\"seed\":{seed},\"per_class\":{per_class}}}"),
        Some(classes) => {
            let labels: Vec<String> = classes.iter().map(|c| fmt_str(c.label())).collect();
            format!(
                "{{\"verb\":\"batch\",\"seed\":{},\"per_class\":{},\"classes\":[{}]}}",
                seed,
                per_class,
                labels.join(",")
            )
        }
    }
}

/// Builds an `analyze` request line (static lint, no oracle).
#[must_use]
pub fn analyze_request(source: &str) -> String {
    format!("{{\"verb\":\"analyze\",\"source\":{}}}", fmt_str(source))
}

/// Builds a `stats` request line.
#[must_use]
pub fn stats_request() -> String {
    "{\"verb\":\"stats\"}".to_owned()
}

/// Builds a `metrics` request line.
#[must_use]
pub fn metrics_request() -> String {
    "{\"verb\":\"metrics\"}".to_owned()
}

/// Builds a `compact` request line.
#[must_use]
pub fn compact_request() -> String {
    "{\"verb\":\"compact\"}".to_owned()
}

/// Builds a `shutdown` request line.
#[must_use]
pub fn shutdown_request() -> String {
    "{\"verb\":\"shutdown\"}".to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_request, Request};

    #[test]
    fn built_requests_parse_back() {
        let line = repair_request("fn main() { let x = 1; }", &["1".to_owned()], 7);
        assert_eq!(
            parse_request(&line).unwrap(),
            Request::Repair {
                source: "fn main() { let x = 1; }".into(),
                reference: vec!["1".into()],
                seed: 7,
            }
        );
        let line = batch_request(42, 2, Some(&[UbClass::Alloc, UbClass::Panic]));
        assert_eq!(
            parse_request(&line).unwrap(),
            Request::Batch {
                seed: 42,
                per_class: 2,
                classes: Some(vec![UbClass::Alloc, UbClass::Panic]),
            }
        );
        assert_eq!(parse_request(&batch_request(1, 3, None)).unwrap(), {
            Request::Batch {
                seed: 1,
                per_class: 3,
                classes: None,
            }
        });
        assert_eq!(
            parse_request(&analyze_request("fn main() {}")).unwrap(),
            Request::Analyze {
                source: "fn main() {}".into(),
            }
        );
        assert_eq!(parse_request(&stats_request()).unwrap(), Request::Stats);
        assert_eq!(parse_request(&metrics_request()).unwrap(), Request::Metrics);
        assert_eq!(parse_request(&compact_request()).unwrap(), Request::Compact);
        assert_eq!(
            parse_request(&shutdown_request()).unwrap(),
            Request::Shutdown
        );
    }
}
