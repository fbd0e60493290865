//! A minimal blocking client for the wire protocol.
//!
//! One [`Client`] wraps one TCP connection and issues one request at a
//! time (the protocol is strictly request/response per connection — no
//! pipelining). It exists for the integration tests, the examples and the
//! load generator; a production client would add reconnection and
//! pooling, which are out of scope here.

use crate::protocol::{
    read_frame, write_frame, ErrorCode, Request, Response, ShardStats, MAX_FRAME_LEN, VERB_DEL,
    VERB_GET, VERB_PING, VERB_PUT, VERB_SCAN, VERB_SEEK, VERB_SHUTDOWN, VERB_STATS,
};
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A client-side failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClientError {
    /// The transport failed (connect, read, write, or the server closed
    /// the connection mid-exchange).
    Io(std::io::Error),
    /// The server answered with a typed protocol error.
    Remote {
        /// The error class from the response status byte.
        code: ErrorCode,
        /// The server's diagnostic message.
        message: String,
    },
    /// The server's response payload was malformed (a protocol bug or a
    /// corrupted stream).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Remote { code, message } => write!(f, "server: {code}: {message}"),
            ClientError::Protocol(m) => write!(f, "malformed response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<crate::protocol::Error> for ClientError {
    fn from(e: crate::protocol::Error) -> ClientError {
        match e {
            crate::protocol::Error::Transport(e) => ClientError::Io(e),
            other => ClientError::Protocol(other.to_string()),
        }
    }
}

/// Client-side result alias.
pub type Result<T> = std::result::Result<T, ClientError>;

/// One blocking connection to a [`crate::Server`].
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { reader: BufReader::new(stream.try_clone()?), writer: BufWriter::new(stream) })
    }

    /// Issue one request and decode the response for its verb.
    fn call(&mut self, req: &Request) -> Result<Response> {
        let payload = req.encode();
        let verb = payload[0];
        write_frame(&mut self.writer, &payload)?;
        self.writer.flush()?;
        let resp_payload = read_frame(&mut self.reader, MAX_FRAME_LEN)?.ok_or_else(|| {
            ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            ))
        })?;
        match Response::decode(verb, &resp_payload).map_err(ClientError::Protocol)? {
            Response::Error { code, message } => Err(ClientError::Remote { code, message }),
            resp => Ok(resp),
        }
    }

    fn unexpected<T>(verb: u8, resp: Response) -> Result<T> {
        Err(ClientError::Protocol(format!(
            "response shape {resp:?} does not match verb {verb:#04x}"
        )))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        match self.call(&Request::Ping)? {
            Response::Ok => Ok(()),
            r => Self::unexpected(VERB_PING, r),
        }
    }

    /// Exact-key read.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        match self.call(&Request::Get { key: key.to_vec() })? {
            Response::Value(v) => Ok(v),
            r => Self::unexpected(VERB_GET, r),
        }
    }

    /// Insert or overwrite one key. On `Ok`, the write is acked: it is in
    /// the owning shard's WAL (durable per that shard's
    /// [`proteus_lsm::SyncMode`]).
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        match self.call(&Request::Put { key: key.to_vec(), value: value.to_vec() })? {
            Response::Ok => Ok(()),
            r => Self::unexpected(VERB_PUT, r),
        }
    }

    /// Delete one key (deleting an absent key is a valid no-op).
    pub fn delete(&mut self, key: &[u8]) -> Result<()> {
        match self.call(&Request::Delete { key: key.to_vec() })? {
            Response::Ok => Ok(()),
            r => Self::unexpected(VERB_DEL, r),
        }
    }

    /// Ordered scan of `[lo, hi]`, at most `limit` entries (`0` = server
    /// default). Returns the entries and whether the limit cut the scan
    /// short.
    #[allow(clippy::type_complexity)]
    pub fn scan(
        &mut self,
        lo: &[u8],
        hi: &[u8],
        limit: u32,
    ) -> Result<(Vec<(Vec<u8>, Vec<u8>)>, bool)> {
        match self.call(&Request::Scan { lo: lo.to_vec(), hi: hi.to_vec(), limit })? {
            Response::Entries { entries, more } => Ok((entries, more)),
            r => Self::unexpected(VERB_SCAN, r),
        }
    }

    /// Closed-range emptiness probe: does any live key exist in `[lo, hi]`?
    pub fn seek(&mut self, lo: &[u8], hi: &[u8]) -> Result<bool> {
        match self.call(&Request::Seek { lo: lo.to_vec(), hi: hi.to_vec() })? {
            Response::Found(found) => Ok(found),
            r => Self::unexpected(VERB_SEEK, r),
        }
    }

    /// Per-shard statistics snapshots, in shard order.
    pub fn stats(&mut self) -> Result<Vec<ShardStats>> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            r => Self::unexpected(VERB_STATS, r),
        }
    }

    /// Ask the server to shut down gracefully. The ack arrives before the
    /// drain begins; the connection is closed by the server afterwards.
    pub fn shutdown(&mut self) -> Result<()> {
        match self.call(&Request::Shutdown)? {
            Response::Ok => Ok(()),
            r => Self::unexpected(VERB_SHUTDOWN, r),
        }
    }
}
