//! Shared helpers for the serve integration tests.
#![allow(dead_code)] // each test binary uses a different subset

use bcc_serve::{net, NetConfig, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Starts an in-process daemon on an OS-assigned loopback port.
pub fn start_server(config: ServerConfig) -> (Arc<Server>, bcc_serve::Listening) {
    let server = Server::start(config);
    let listening = net::start(
        Arc::clone(&server),
        NetConfig {
            port: 0,
            port_file: None,
            drain_timeout: std::time::Duration::from_secs(10),
        },
    )
    .expect("bind loopback");
    (server, listening)
}

/// A line-oriented test connection.
pub struct TestConn {
    pub reader: BufReader<TcpStream>,
    pub writer: TcpStream,
}

impl TestConn {
    pub fn connect(port: u16) -> TestConn {
        let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        TestConn {
            reader,
            writer: stream,
        }
    }

    pub fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send newline");
        self.writer.flush().expect("flush");
    }

    pub fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "daemon closed the connection unexpectedly");
        line.trim_end().to_string()
    }

    /// Sends one line and reads one reply.
    pub fn roundtrip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }

    /// True when the next read hits EOF (connection closed by the
    /// daemon).
    pub fn at_eof(&mut self) -> bool {
        let mut line = String::new();
        matches!(self.reader.read_line(&mut line), Ok(0))
    }
}

/// Extracts a `"key":<u64>` field from a flat JSON line.
pub fn json_u64(line: &str, key: &str) -> Option<u64> {
    bcc_json::parse(line)
        .ok()?
        .get(key)
        .and_then(bcc_json::JsonValue::as_u64)
}

/// Extracts a `"key":"string"` field from a flat JSON line.
pub fn json_str(line: &str, key: &str) -> Option<String> {
    bcc_json::parse(line)
        .ok()?
        .get(key)
        .and_then(bcc_json::JsonValue::as_str)
        .map(str::to_string)
}
