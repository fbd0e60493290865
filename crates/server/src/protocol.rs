//! The wire protocol: length-prefixed binary frames over a byte stream.
//!
//! ## Frame layout
//!
//! Every message — request or response — is one *frame*:
//!
//! ```text
//! u32 len (little-endian) | payload (len bytes)
//! ```
//!
//! A frame longer than [`MAX_FRAME_LEN`] is rejected with
//! [`ErrorCode::TooLarge`] and the connection is closed (the stream can no
//! longer be resynchronized). Integers are little-endian; keys, values and
//! error messages are length-prefixed byte runs using the same
//! [`WireWrite::put_bytes`] / [`ByteReader::bytes`] runs as the filter
//! codec and the WAL.
//!
//! ## Requests
//!
//! The request payload starts with one verb byte:
//!
//! | verb | byte | body |
//! |------|------|------|
//! | `PING`     | `0x00` | — |
//! | `GET`      | `0x01` | key |
//! | `PUT`      | `0x02` | key, value |
//! | `DEL`      | `0x03` | key |
//! | `SCAN`     | `0x04` | lo key, hi key, `u32` limit (`0` = server cap) |
//! | `SEEK`     | `0x05` | lo key, hi key |
//! | `STATS`    | `0x06` | — |
//! | `SHUTDOWN` | `0x07` | — |
//!
//! Keys are opaque length-prefixed bytes on the wire — arbitrary byte
//! strings; the *server* enforces the store's key-length limit
//! (non-empty, at most [`proteus_lsm::config::MAX_KEY_BYTES`]) and answers [`ErrorCode::BadKey`]
//! outside it, mirroring [`proteus_lsm::Error::Config`] at the Db API.
//!
//! ## Responses
//!
//! The response payload starts with one status byte. `0x00` is OK and the
//! rest of the payload is verb-specific (see [`Response`]); any other
//! status is an [`ErrorCode`] followed by a length-prefixed UTF-8
//! diagnostic message. A malformed or truncated request body is answered
//! with [`ErrorCode::BadFrame`] — never a panic, never a hang.

use proteus_core::codec::{ByteReader, CodecError, WireWrite};
use std::io::{Read, Write};

/// Hard ceiling on one frame's payload, requests and responses alike
/// (16 MiB). Bounds per-connection memory against hostile length prefixes.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Default server-side cap on `SCAN` entries when the request's `limit` is
/// zero, keeping every response under [`MAX_FRAME_LEN`].
pub const DEFAULT_SCAN_LIMIT: u32 = 10_000;

/// Verb byte: liveness probe, no body.
pub const VERB_PING: u8 = 0x00;
/// Verb byte: exact-key read.
pub const VERB_GET: u8 = 0x01;
/// Verb byte: insert/overwrite one key.
pub const VERB_PUT: u8 = 0x02;
/// Verb byte: delete one key (tombstone).
pub const VERB_DEL: u8 = 0x03;
/// Verb byte: ordered range scan with an entry limit.
pub const VERB_SCAN: u8 = 0x04;
/// Verb byte: closed-range emptiness probe (§6.1 `Seek`).
pub const VERB_SEEK: u8 = 0x05;
/// Verb byte: per-shard statistics snapshot.
pub const VERB_STATS: u8 = 0x06;
/// Verb byte: begin graceful server shutdown after acking.
pub const VERB_SHUTDOWN: u8 = 0x07;

/// Response status `0x00`: success, verb-specific body follows.
pub const STATUS_OK: u8 = 0x00;

/// A typed protocol-level failure, carried in the response status byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorCode {
    /// The request payload could not be decoded (truncated body, trailing
    /// bytes, or a corrupt length prefix).
    BadFrame,
    /// The verb byte is not one this server understands.
    UnknownVerb,
    /// A key failed the server's fixed-width validation
    /// ([`proteus_lsm::Error::Config`] at the store boundary).
    BadKey,
    /// The frame length prefix exceeds [`MAX_FRAME_LEN`]; the connection
    /// is closed after this response.
    TooLarge,
    /// The store failed the operation (I/O, corruption, poisoned lock);
    /// the message carries the typed [`proteus_lsm::Error`] rendering.
    Store,
}

impl ErrorCode {
    /// The status byte for this error.
    pub fn as_byte(self) -> u8 {
        match self {
            ErrorCode::BadFrame => 0x01,
            ErrorCode::UnknownVerb => 0x02,
            ErrorCode::BadKey => 0x03,
            ErrorCode::TooLarge => 0x04,
            ErrorCode::Store => 0x05,
        }
    }

    /// Decode a status byte (`None` for `STATUS_OK` or an unknown byte).
    pub fn from_byte(b: u8) -> Option<ErrorCode> {
        match b {
            0x01 => Some(ErrorCode::BadFrame),
            0x02 => Some(ErrorCode::UnknownVerb),
            0x03 => Some(ErrorCode::BadKey),
            0x04 => Some(ErrorCode::TooLarge),
            0x05 => Some(ErrorCode::Store),
            _ => None,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::BadFrame => "bad frame",
            ErrorCode::UnknownVerb => "unknown verb",
            ErrorCode::BadKey => "bad key",
            ErrorCode::TooLarge => "frame too large",
            ErrorCode::Store => "store error",
        };
        f.write_str(name)
    }
}

/// One decoded client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Exact-key read.
    Get {
        /// The key to look up (server validates the width).
        key: Vec<u8>,
    },
    /// Insert or overwrite one key.
    Put {
        /// The key to write.
        key: Vec<u8>,
        /// The value bytes.
        value: Vec<u8>,
    },
    /// Delete one key (a tombstone; deleting an absent key is a no-op).
    Delete {
        /// The key to delete.
        key: Vec<u8>,
    },
    /// Ordered scan of `[lo, hi]`, at most `limit` entries (`0` means the
    /// server default, [`DEFAULT_SCAN_LIMIT`]).
    Scan {
        /// Inclusive lower bound.
        lo: Vec<u8>,
        /// Inclusive upper bound.
        hi: Vec<u8>,
        /// Maximum entries to return (`0` = server cap).
        limit: u32,
    },
    /// Closed-range emptiness probe: does any live key exist in `[lo, hi]`?
    Seek {
        /// Inclusive lower bound.
        lo: Vec<u8>,
        /// Inclusive upper bound.
        hi: Vec<u8>,
    },
    /// Per-shard statistics snapshot.
    Stats,
    /// Ack, then begin graceful shutdown (drain in-flight requests, close
    /// every connection, drop every shard cleanly).
    Shutdown,
}

impl Request {
    /// Encode this request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Ping => out.put_u8(VERB_PING),
            Request::Get { key } => {
                out.put_u8(VERB_GET);
                out.put_bytes(key);
            }
            Request::Put { key, value } => {
                out.put_u8(VERB_PUT);
                out.put_bytes(key);
                out.put_bytes(value);
            }
            Request::Delete { key } => {
                out.put_u8(VERB_DEL);
                out.put_bytes(key);
            }
            Request::Scan { lo, hi, limit } => {
                out.put_u8(VERB_SCAN);
                out.put_bytes(lo);
                out.put_bytes(hi);
                out.put_u32(*limit);
            }
            Request::Seek { lo, hi } => {
                out.put_u8(VERB_SEEK);
                out.put_bytes(lo);
                out.put_bytes(hi);
            }
            Request::Stats => out.put_u8(VERB_STATS),
            Request::Shutdown => out.put_u8(VERB_SHUTDOWN),
        }
        out
    }

    /// Decode a frame payload into a request. Failures are typed for the
    /// response status: an unknown verb byte is `UnknownVerb`, anything
    /// structurally wrong (short body, trailing bytes) is `BadFrame`.
    pub fn decode(payload: &[u8]) -> Result<Request, (ErrorCode, String)> {
        let bad = |e: CodecError| (ErrorCode::BadFrame, e.to_string());
        let mut r = ByteReader::new(payload);
        let verb = r.u8().map_err(bad)?;
        let req = match verb {
            VERB_PING => Request::Ping,
            VERB_GET => Request::Get { key: r.bytes().map_err(bad)?.to_vec() },
            VERB_PUT => Request::Put {
                key: r.bytes().map_err(bad)?.to_vec(),
                value: r.bytes().map_err(bad)?.to_vec(),
            },
            VERB_DEL => Request::Delete { key: r.bytes().map_err(bad)?.to_vec() },
            VERB_SCAN => Request::Scan {
                lo: r.bytes().map_err(bad)?.to_vec(),
                hi: r.bytes().map_err(bad)?.to_vec(),
                limit: r.u32().map_err(bad)?,
            },
            VERB_SEEK => Request::Seek {
                lo: r.bytes().map_err(bad)?.to_vec(),
                hi: r.bytes().map_err(bad)?.to_vec(),
            },
            VERB_STATS => Request::Stats,
            VERB_SHUTDOWN => Request::Shutdown,
            v => return Err((ErrorCode::UnknownVerb, format!("unknown verb byte {v:#04x}"))),
        };
        r.finish().map_err(bad)?;
        Ok(req)
    }
}

/// One shard's statistics snapshot, served by the `STATS` verb. A compact,
/// fixed selection of the store's [`proteus_lsm::Stats`] counters — enough
/// for the load generator to show routing balance and background activity
/// without shipping the whole counter set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index (0-based; shards partition the key space in order).
    pub shard: u32,
    /// Exact-key `get`s served.
    pub gets: u64,
    /// Deletes (tombstones written).
    pub deletes: u64,
    /// Ordered range scans started.
    pub range_scans: u64,
    /// Closed-range `seek` probes.
    pub seeks: u64,
    /// WAL commit records appended (puts + deletes + batches).
    pub commits: u64,
    /// WAL commit records replayed at the last open — nonzero after a
    /// restart proves the shard recovered through the WAL path.
    pub wal_replayed: u64,
    /// MemTable flushes completed.
    pub flushes: u64,
    /// Compactions run.
    pub compactions: u64,
    /// Live SST files.
    pub sst_files: u64,
}

impl ShardStats {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.put_u32(self.shard);
        for v in [
            self.gets,
            self.deletes,
            self.range_scans,
            self.seeks,
            self.commits,
            self.wal_replayed,
            self.flushes,
            self.compactions,
            self.sst_files,
        ] {
            out.put_u64(v);
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<ShardStats, CodecError> {
        Ok(ShardStats {
            shard: r.u32()?,
            gets: r.u64()?,
            deletes: r.u64()?,
            range_scans: r.u64()?,
            seeks: r.u64()?,
            commits: r.u64()?,
            wal_replayed: r.u64()?,
            flushes: r.u64()?,
            compactions: r.u64()?,
            sst_files: r.u64()?,
        })
    }
}

/// The decoded body of a successful response. Which variant applies is
/// fixed by the request verb (the protocol does not tag response bodies);
/// [`Response::decode`] therefore takes the verb the client sent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `PING` / `PUT` / `DEL` / `SHUTDOWN`: acknowledged, no body.
    Ok,
    /// `GET`: the value, or `None` if the key has no live record.
    Value(Option<Vec<u8>>),
    /// `SCAN`: entries in key order; `more` means the scan stopped at the
    /// entry limit and the range may hold further entries (resume by
    /// re-issuing with `lo` = successor of the last key).
    Entries {
        /// The `(key, value)` entries, ascending by key.
        entries: Vec<(Vec<u8>, Vec<u8>)>,
        /// Whether the limit cut the scan short.
        more: bool,
    },
    /// `SEEK`: whether any live key exists in the probed range.
    Found(bool),
    /// `STATS`: one snapshot per shard, in shard order.
    Stats(Vec<ShardStats>),
    /// Any verb: the typed failure and its diagnostic message.
    Error {
        /// The protocol error class.
        code: ErrorCode,
        /// Human-readable detail (UTF-8).
        message: String,
    },
}

impl Response {
    /// Encode this response into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Ok => out.put_u8(STATUS_OK),
            Response::Value(v) => {
                out.put_u8(STATUS_OK);
                match v {
                    Some(v) => {
                        out.put_u8(1);
                        out.put_bytes(v);
                    }
                    None => out.put_u8(0),
                }
            }
            Response::Entries { entries, more } => {
                out.put_u8(STATUS_OK);
                out.put_u8(u8::from(*more));
                debug_assert!(u32::try_from(entries.len()).is_ok());
                // lint: allow(truncating-cast): scan batches are bounded far below u32::MAX
                out.put_u32(entries.len() as u32);
                for (k, v) in entries {
                    out.put_bytes(k);
                    out.put_bytes(v);
                }
            }
            Response::Found(found) => {
                out.put_u8(STATUS_OK);
                out.put_u8(u8::from(*found));
            }
            Response::Stats(shards) => {
                out.put_u8(STATUS_OK);
                // lint: allow(truncating-cast): shard counts are tiny (one per CPU)
                out.put_u32(shards.len() as u32);
                for s in shards {
                    s.encode_into(&mut out);
                }
            }
            Response::Error { code, message } => {
                out.put_u8(code.as_byte());
                out.put_bytes(message.as_bytes());
            }
        }
        out
    }

    /// Decode a frame payload as the response to `verb`. Returns an error
    /// string only when the *payload itself* is malformed (a broken or
    /// lying server); a well-formed error status decodes as
    /// [`Response::Error`].
    pub fn decode(verb: u8, payload: &[u8]) -> Result<Response, String> {
        let mut r = ByteReader::new(payload);
        let status = r.u8().map_err(|e| e.to_string())?;
        if status != STATUS_OK {
            let code = ErrorCode::from_byte(status)
                .ok_or_else(|| format!("unknown response status {status:#04x}"))?;
            let message = String::from_utf8_lossy(r.bytes().map_err(|e| e.to_string())?).into();
            r.finish().map_err(|e| e.to_string())?;
            return Ok(Response::Error { code, message });
        }
        let resp = match verb {
            VERB_PING | VERB_PUT | VERB_DEL | VERB_SHUTDOWN => Response::Ok,
            VERB_GET => {
                let present = r.u8().map_err(|e| e.to_string())?;
                match present {
                    0 => Response::Value(None),
                    1 => Response::Value(Some(r.bytes().map_err(|e| e.to_string())?.to_vec())),
                    b => return Err(format!("bad GET presence byte {b:#04x}")),
                }
            }
            VERB_SCAN => {
                let more = r.u8().map_err(|e| e.to_string())? != 0;
                let n = r.u32().map_err(|e| e.to_string())? as usize;
                let mut entries = Vec::with_capacity(n.min(payload.len()));
                for _ in 0..n {
                    let k = r.bytes().map_err(|e| e.to_string())?.to_vec();
                    let v = r.bytes().map_err(|e| e.to_string())?.to_vec();
                    entries.push((k, v));
                }
                Response::Entries { entries, more }
            }
            VERB_SEEK => Response::Found(r.u8().map_err(|e| e.to_string())? != 0),
            VERB_STATS => {
                let n = r.u32().map_err(|e| e.to_string())? as usize;
                let mut shards = Vec::with_capacity(n.min(payload.len()));
                for _ in 0..n {
                    shards.push(ShardStats::decode_from(&mut r).map_err(|e| e.to_string())?);
                }
                Response::Stats(shards)
            }
            v => return Err(format!("cannot decode a response for verb {v:#04x}")),
        };
        r.finish().map_err(|e| e.to_string())?;
        Ok(resp)
    }
}

/// A failure below the request/response level: the framed transport, or
/// bringing a server up on it.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// The transport failed: bind, read, write, or an EOF mid-frame.
    Transport(std::io::Error),
    /// A frame's length prefix exceeds the receiver's limit. The body is
    /// left unread, so the stream cannot be resynchronized.
    FrameTooLarge {
        /// The announced payload length.
        len: usize,
        /// The receiver's limit.
        max: usize,
    },
    /// A shard's store failed to open.
    Shard {
        /// Which shard.
        index: usize,
        /// The store's own typed error.
        source: proteus_lsm::Error,
    },
    /// The data directory holds stores for a different shard count, whose
    /// keys this count's router would look for in the wrong store.
    ShardCount {
        /// `shard-NNNN` stores found in the directory.
        found: usize,
        /// The shard count the server was started with.
        requested: usize,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Transport(e) => write!(f, "transport: {e}"),
            Error::FrameTooLarge { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte limit")
            }
            Error::Shard { index, source } => write!(f, "opening shard {index}: {source}"),
            Error::ShardCount { found, requested } => write!(
                f,
                "the data directory holds {found} shards; starting with {requested} would \
                 route keys to shards that never held them"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Transport(e) => Some(e),
            Error::FrameTooLarge { .. } | Error::ShardCount { .. } => None,
            Error::Shard { source, .. } => Some(source),
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Error {
        Error::Transport(e)
    }
}

/// Write one frame (length prefix + payload) to `w`. Does not flush —
/// callers batch the flush per response.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), Error> {
    debug_assert!(payload.len() <= MAX_FRAME_LEN);
    // lint: allow(truncating-cast): asserted ≤ MAX_FRAME_LEN (16 MiB) above
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    Ok(w.write_all(payload)?)
}

/// Read one frame from `r`, blocking until it is complete.
///
/// * `Ok(Some(payload))` — a whole frame arrived;
/// * `Ok(None)` — the stream ended cleanly *before* any byte of a frame
///   (the peer closed between requests);
/// * `Err(`[`Error::FrameTooLarge`]`)` — the length prefix exceeds
///   `max_len` (the caller should answer [`ErrorCode::TooLarge`] and close:
///   the stream cannot be resynchronized);
/// * `Err(`[`Error::Transport`]`)` — transport failure, including an EOF
///   mid-frame.
pub fn read_frame(r: &mut impl Read, max_len: usize) -> Result<Option<Vec<u8>>, Error> {
    let mut len_buf = [0u8; 4];
    // First byte by hand so a clean close between frames is `None`, not an
    // error; a signal landing there retries, as `read_exact` does after it.
    loop {
        match r.read(&mut len_buf[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    r.read_exact(&mut len_buf[1..])?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > max_len {
        return Err(Error::FrameTooLarge { len, max: max_len });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(i: u64) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    #[test]
    fn requests_roundtrip() {
        let reqs = vec![
            Request::Ping,
            Request::Get { key: k(1) },
            Request::Put { key: k(2), value: b"hello".to_vec() },
            Request::Delete { key: k(3) },
            Request::Scan { lo: k(0), hi: k(9), limit: 128 },
            Request::Seek { lo: k(4), hi: k(5) },
            Request::Stats,
            Request::Shutdown,
        ];
        for req in reqs {
            let enc = req.encode();
            assert_eq!(Request::decode(&enc).unwrap(), req, "roundtrip {req:?}");
        }
    }

    #[test]
    fn responses_roundtrip_per_verb() {
        let cases: Vec<(u8, Response)> = vec![
            (VERB_PING, Response::Ok),
            (VERB_PUT, Response::Ok),
            (VERB_GET, Response::Value(None)),
            (VERB_GET, Response::Value(Some(b"v".to_vec()))),
            (
                VERB_SCAN,
                Response::Entries {
                    entries: vec![(k(1), b"a".to_vec()), (k(2), Vec::new())],
                    more: true,
                },
            ),
            (VERB_SEEK, Response::Found(true)),
            (
                VERB_STATS,
                Response::Stats(vec![
                    ShardStats { shard: 0, gets: 7, sst_files: 3, ..Default::default() },
                    ShardStats { shard: 1, commits: 9, wal_replayed: 2, ..Default::default() },
                ]),
            ),
            (VERB_GET, Response::Error { code: ErrorCode::BadKey, message: "width 3 != 8".into() }),
        ];
        for (verb, resp) in cases {
            let enc = resp.encode();
            assert_eq!(Response::decode(verb, &enc).unwrap(), resp, "verb {verb:#04x}");
        }
    }

    #[test]
    fn truncated_and_trailing_request_bodies_are_typed_errors() {
        // Truncated: a PUT missing its value run.
        let mut enc = Vec::new();
        enc.put_u8(VERB_PUT);
        enc.put_bytes(&k(1));
        assert_eq!(Request::decode(&enc).unwrap_err().0, ErrorCode::BadFrame);
        // A length prefix lying past the end of the payload.
        let mut enc = Vec::new();
        enc.put_u8(VERB_GET);
        enc.put_u64(1 << 40);
        assert_eq!(Request::decode(&enc).unwrap_err().0, ErrorCode::BadFrame);
        // Trailing garbage after a well-formed body.
        let mut enc = Request::Get { key: k(1) }.encode();
        enc.push(0xAB);
        assert_eq!(Request::decode(&enc).unwrap_err().0, ErrorCode::BadFrame);
        // Unknown verb byte gets its own class.
        assert_eq!(Request::decode(&[0x7F]).unwrap_err().0, ErrorCode::UnknownVerb);
        // Empty payload (no verb byte at all).
        assert_eq!(Request::decode(&[]).unwrap_err().0, ErrorCode::BadFrame);
    }

    #[test]
    fn frames_roundtrip_and_enforce_the_length_ceiling() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abc").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, MAX_FRAME_LEN).unwrap().unwrap(), b"abc");
        assert_eq!(read_frame(&mut r, MAX_FRAME_LEN).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r, MAX_FRAME_LEN).unwrap().is_none(), "clean EOF");
        // Oversized length prefix: a typed refusal, not an allocation.
        let huge = (u32::MAX).to_le_bytes();
        let err = read_frame(&mut &huge[..], MAX_FRAME_LEN).unwrap_err();
        assert!(matches!(err, Error::FrameTooLarge { len, max } if len > max), "{err}");
        // EOF mid-frame is an error, not a silent empty frame.
        let mut torn = Vec::new();
        write_frame(&mut torn, b"abcdef").unwrap();
        torn.truncate(torn.len() - 2);
        assert!(read_frame(&mut &torn[..], MAX_FRAME_LEN).is_err());
        // A signal before the first byte retries instead of failing.
        struct InterruptedOnce<'a>(bool, &'a [u8]);
        impl Read for InterruptedOnce<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if std::mem::replace(&mut self.0, false) {
                    return Err(std::io::ErrorKind::Interrupted.into());
                }
                self.1.read(buf)
            }
        }
        let mut r = InterruptedOnce(true, &buf);
        assert_eq!(read_frame(&mut r, MAX_FRAME_LEN).unwrap().unwrap(), b"abc");
    }

    #[test]
    fn error_codes_roundtrip() {
        for code in [
            ErrorCode::BadFrame,
            ErrorCode::UnknownVerb,
            ErrorCode::BadKey,
            ErrorCode::TooLarge,
            ErrorCode::Store,
        ] {
            assert_eq!(ErrorCode::from_byte(code.as_byte()), Some(code));
        }
        assert_eq!(ErrorCode::from_byte(STATUS_OK), None);
        assert_eq!(ErrorCode::from_byte(0xEE), None);
    }
}
