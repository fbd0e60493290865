//! The sharded TCP server: accept loop, per-connection request dispatch,
//! and graceful shutdown.
//!
//! ## Threading model
//!
//! One acceptor thread plus one thread per connection — the classic
//! blocking-I/O shape. The store's [`Db`] takes `&self` on every
//! operation and is `Sync`, so connection threads share the shard vector
//! through one `Arc` with no server-side locking; all cross-thread
//! coordination the server adds is a single shutdown [`AtomicBool`] and
//! the connection registry (each thread's join handle beside a clone of
//! its socket).
//!
//! ## Shutdown order
//!
//! Graceful shutdown ([`Server::shutdown`], also triggered by the
//! `SHUTDOWN` verb and by [`Server::drop`]) must sequence three layers:
//!
//! 1. **Stop accepting**: set the shutdown flag, then self-connect to the
//!    listener so the blocking `accept` observes it and exits.
//! 2. **Drain connections**: every registered socket's read side is shut
//!    down, so a thread waiting for a request — or for the rest of one its
//!    peer stalled on — reads EOF at once and exits. A request already
//!    read still runs to completion and its response is flushed (the
//!    write side stays open) — acked writes are never abandoned mid-frame.
//!    All connection threads are joined. The `SHUTDOWN` verb only runs
//!    step 1: other connections close when the owner calls
//!    [`Server::shutdown`] or drops the server.
//! 3. **Drop the shards**: only after every thread that can touch a `Db`
//!    has exited are the shards dropped. [`Db::drop`] then runs its own
//!    shutdown (stop workers, final WAL sync), so every acked write is
//!    durable by the time [`Server::shutdown`] returns. Dropping a `Db`
//!    while a connection thread still held a reference would not be
//!    unsafe — `Arc` prevents the use-after-free — but it would defer the
//!    final WAL sync past the point the server claims to have stopped,
//!    which is why the join comes first.

use crate::protocol::{
    read_frame, write_frame, Error, ErrorCode, Request, Response, ShardStats, DEFAULT_SCAN_LIMIT,
    MAX_FRAME_LEN,
};
use crate::router::Router;
use proteus_core::sync::{rank, Mutex};
use proteus_lsm::{Db, DbConfig, Error as DbError, FilterFactory};
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often [`Server::wait`] re-checks the shutdown flag.
pub const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// A running sharded server. Dropping it performs a full graceful
/// shutdown (see the module docs for the ordering contract).
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

struct Shared {
    shards: Vec<Db>,
    router: Router,
    /// Longest key the shards accept (uniform across shards); validated
    /// up front so a malformed key never reaches a store.
    max_key_bytes: usize,
    /// The listener's bound address — the self-connect target that wakes
    /// the blocking accept loop during shutdown.
    listen_addr: SocketAddr,
    shutting_down: AtomicBool,
    /// Live connection threads, each with a clone of its socket so
    /// shutdown can end its read side. Finished threads are reaped lazily
    /// each accept; shutdown joins whatever remains.
    conns: Mutex<Vec<(JoinHandle<()>, TcpStream)>>,
}

impl Server {
    /// Open `n_shards` stores under `dir` (`dir/shard-0000`,
    /// `dir/shard-0001`, ...) and start serving on `addr`.
    ///
    /// Binding to port 0 picks a free port; read it back with
    /// [`Server::local_addr`]. Each shard gets its own directory, WAL and
    /// background thread, all sharing one `cfg` and filter `factory`.
    /// Re-opening an existing `dir` recovers every shard from its own
    /// `MANIFEST` and WAL. The router's boundaries are a function of the
    /// shard count alone, so a `dir` that holds `shard-NNNN` stores for a
    /// different count — whose keys a new count would look for in the
    /// wrong store — fails with [`Error::ShardCount`] before any shard is
    /// opened.
    pub fn start(
        dir: impl AsRef<Path>,
        addr: impl ToSocketAddrs,
        n_shards: usize,
        cfg: DbConfig,
        factory: Arc<dyn FilterFactory>,
    ) -> Result<Server, Error> {
        let found = existing_shards(dir.as_ref())?;
        if found != 0 && found != n_shards {
            return Err(Error::ShardCount { found, requested: n_shards });
        }
        let router = Router::new(n_shards);
        let max_key_bytes = cfg.max_key_bytes();
        // Every shard directory exists before any store opens, so an open
        // that fails cannot leave a count the next start would refuse.
        let shard_dirs: Vec<PathBuf> =
            (0..n_shards).map(|i| dir.as_ref().join(format!("shard-{i:04}"))).collect();
        for shard_dir in &shard_dirs {
            std::fs::create_dir_all(shard_dir)?;
        }
        let mut shards = Vec::with_capacity(n_shards);
        for (i, shard_dir) in shard_dirs.into_iter().enumerate() {
            let db = Db::open(shard_dir, cfg.clone(), Arc::clone(&factory))
                .map_err(|source| Error::Shard { index: i, source })?;
            shards.push(db);
        }
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            shards,
            router,
            max_key_bytes,
            listen_addr: local_addr,
            shutting_down: AtomicBool::new(false),
            conns: Mutex::new(rank::SERVER_CONNS, Vec::new()),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("proteus-server-accept".into())
                .spawn(move || accept_loop(listener, shared))?
        };
        Ok(Server { shared, acceptor: Some(acceptor), local_addr })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Number of shards this server routes across.
    pub fn n_shards(&self) -> usize {
        self.shared.router.n_shards()
    }

    /// Whether shutdown has been requested (by [`Server::shutdown`], the
    /// `SHUTDOWN` verb, or drop).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down.load(Ordering::SeqCst)
    }

    /// Block until shutdown is requested — by [`Server::shutdown`] from
    /// another thread or by a client's `SHUTDOWN` verb. The standalone
    /// server binary parks here; drop the `Server` afterwards to complete
    /// the drain.
    pub fn wait(&self) {
        while !self.is_shutting_down() {
            std::thread::sleep(POLL_INTERVAL);
        }
    }

    /// Gracefully stop: drain in-flight requests, join every connection
    /// thread, then drop nothing — the shards live until the `Server`
    /// itself drops, so `STATS`-style inspection of `self.shared` stays
    /// valid. Idempotent; concurrent callers all block until the drain
    /// completes.
    pub fn shutdown(&mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // Unblock the acceptor: a throwaway self-connection makes the
        // blocking accept() return so it can observe the flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // With the acceptor gone the registry is complete. Ending each
        // socket's read side wakes a thread blocked in `read` with EOF;
        // a busy one finishes (and flushes) its current request first.
        let conns = {
            let mut g = self.shared.conns.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            std::mem::take(&mut *g)
        };
        for (_, stream) in &conns {
            let _ = stream.shutdown(Shutdown::Read);
        }
        for (h, _) in conns {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    /// Graceful shutdown, then the shards drop (each [`Db::drop`] stops
    /// its workers and runs the final WAL sync). The join-before-drop
    /// ordering is the contract documented at module level.
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How many `shard-NNNN` stores `dir` holds (0 when it does not exist).
fn existing_shards(dir: &Path) -> std::io::Result<usize> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let mut n = 0;
    for entry in entries {
        let name = entry?.file_name();
        let index = name.to_str().and_then(|n| n.strip_prefix("shard-"));
        n += usize::from(index.is_some_and(|i| i.parse::<usize>().is_ok()));
    }
    Ok(n)
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut conn_id = 0u64;
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) if shared.shutting_down.load(Ordering::SeqCst) => return,
            Err(_) => continue,
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            // The self-connect wakeup (or a client racing shutdown):
            // drop the socket unserved and exit.
            return;
        }
        let Ok(registered) = stream.try_clone() else { continue };
        conn_id += 1;
        let conn_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name(format!("proteus-server-conn-{conn_id}"))
            .spawn(move || {
                let _ = serve_connection(&stream, &conn_shared);
                // The registry's clone keeps the socket open: close it for
                // the peer now, not when that clone is reaped.
                let _ = stream.shutdown(Shutdown::Both);
            });
        let Ok(handle) = handle else { continue };
        let mut g = shared.conns.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        // Reap finished threads so a long-lived server with churning
        // connections doesn't accumulate handles or sockets.
        g.retain(|(h, _)| !h.is_finished());
        g.push((handle, registered));
    }
}

/// Serve one connection until the peer closes, the transport fails, a
/// frame is oversized, or shutdown ends its read side. Never panics on
/// malformed input: every decode failure becomes a typed error response.
fn serve_connection(stream: &TcpStream, shared: &Shared) -> Result<(), Error> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(stream);
    loop {
        let payload = match read_frame(&mut reader, MAX_FRAME_LEN) {
            Ok(Some(p)) => p,
            Ok(None) => return Ok(()), // peer closed cleanly, or drained
            Err(e @ Error::FrameTooLarge { .. }) => {
                // Oversized frame: answer TooLarge, then close — the
                // stream cannot be resynchronized past an unread body.
                let resp = Response::Error { code: ErrorCode::TooLarge, message: e.to_string() };
                write_frame(&mut writer, &resp.encode())?;
                return Ok(writer.flush()?);
            }
            Err(e) => return Err(e), // torn frame / transport failure
        };
        let (response, shutdown_after) = dispatch(&payload, shared);
        write_frame(&mut writer, &response.encode())?;
        writer.flush()?;
        if shutdown_after {
            shared.shutting_down.store(true, Ordering::SeqCst);
            // Wake the acceptor exactly like Server::shutdown does; the
            // Server's own shutdown/join still runs at drop.
            let _ = TcpStream::connect(shared.listen_addr);
            return Ok(());
        }
    }
}

/// Decode and execute one request. Returns the response plus whether the
/// connection should trigger server shutdown after flushing it.
fn dispatch(payload: &[u8], shared: &Shared) -> (Response, bool) {
    let req = match Request::decode(payload) {
        Ok(r) => r,
        Err((code, message)) => return (Response::Error { code, message }, false),
    };
    let resp = match req {
        Request::Ping => Response::Ok,
        Request::Get { key } => match shared.shard_for(&key) {
            Ok(db) => match db.get(&key) {
                Ok(v) => Response::Value(v),
                Err(e) => store_error(e),
            },
            Err(r) => r,
        },
        Request::Put { key, value } => match shared.shard_for(&key) {
            Ok(db) => match db.put(&key, &value) {
                Ok(()) => Response::Ok,
                Err(e) => store_error(e),
            },
            Err(r) => r,
        },
        Request::Delete { key } => match shared.shard_for(&key) {
            Ok(db) => match db.delete(&key) {
                Ok(()) => Response::Ok,
                Err(e) => store_error(e),
            },
            Err(r) => r,
        },
        Request::Scan { lo, hi, limit } => shared.scan(&lo, &hi, limit),
        Request::Seek { lo, hi } => shared.seek(&lo, &hi),
        Request::Stats => Response::Stats(shared.stats()),
        Request::Shutdown => return (Response::Ok, true),
    };
    (resp, false)
}

/// Map a store failure to the wire: key-validation failures are the
/// client's fault ([`ErrorCode::BadKey`]); everything else is a server-side
/// store error carrying the typed rendering.
fn store_error(e: DbError) -> Response {
    let code = match e {
        DbError::Config(_) => ErrorCode::BadKey,
        _ => ErrorCode::Store,
    };
    Response::Error { code, message: e.to_string() }
}

impl Shared {
    /// Validate the key length up front (uniform across shards), then
    /// route. Keys are arbitrary byte strings of 1..=`max_key_bytes`
    /// bytes.
    fn shard_for(&self, key: &[u8]) -> Result<&Db, Response> {
        self.check_key("key", key)?;
        Ok(&self.shards[self.router.shard_of(key)])
    }

    fn check_key(&self, name: &str, key: &[u8]) -> Result<(), Response> {
        if key.is_empty() || key.len() > self.max_key_bytes {
            return Err(Response::Error {
                code: ErrorCode::BadKey,
                message: format!(
                    "{name} is {} bytes; this server stores keys of 1..={} bytes",
                    key.len(),
                    self.max_key_bytes
                ),
            });
        }
        Ok(())
    }

    /// Ordered scan of `[lo, hi]` across the shard run. Shards partition
    /// the key space contiguously and in order, so concatenating per-shard
    /// results in shard order yields a globally sorted answer.
    fn scan(&self, lo: &[u8], hi: &[u8], limit: u32) -> Response {
        if let Err(r) = self.check_bounds(lo, hi) {
            return r;
        }
        let limit = if limit == 0 { DEFAULT_SCAN_LIMIT } else { limit } as usize;
        let mut entries = Vec::new();
        let mut more = false;
        'shards: for s in self.router.shards_for_range(lo, hi) {
            let iter = match self.shards[s]
                .range((Bound::Included(lo.to_vec()), Bound::Included(hi.to_vec())))
            {
                Ok(it) => it,
                Err(e) => return store_error(e),
            };
            for item in iter {
                let (k, v) = match item {
                    Ok(kv) => kv,
                    Err(e) => return store_error(e),
                };
                if entries.len() == limit {
                    more = true;
                    break 'shards;
                }
                entries.push((k, v));
            }
        }
        Response::Entries { entries, more }
    }

    /// Emptiness probe across the shard run, short-circuiting on the first
    /// shard that finds a live key.
    fn seek(&self, lo: &[u8], hi: &[u8]) -> Response {
        if let Err(r) = self.check_bounds(lo, hi) {
            return r;
        }
        for s in self.router.shards_for_range(lo, hi) {
            match self.shards[s].seek(lo, hi) {
                Ok(true) => return Response::Found(true),
                Ok(false) => {}
                Err(e) => return store_error(e),
            }
        }
        Response::Found(false)
    }

    fn check_bounds(&self, lo: &[u8], hi: &[u8]) -> Result<(), Response> {
        self.check_key("lo bound", lo)?;
        self.check_key("hi bound", hi)
    }

    fn stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, db)| {
                let s = db.stats();
                ShardStats {
                    shard: i as u32,
                    gets: s.gets.get(),
                    deletes: s.deletes.get(),
                    range_scans: s.range_scans.get(),
                    seeks: s.seeks.get(),
                    commits: s.wal_appends.get(),
                    wal_replayed: s.wal_replayed_records.get(),
                    flushes: s.flushes.get(),
                    compactions: s.compactions.get(),
                    sst_files: db.sst_count() as u64,
                }
            })
            .collect()
    }
}
