//! A slot's link to its shard host: the one way the supervisor reaches a
//! slot.
//!
//! A [`Link`] sends frames, receives the host's frames until a deadline,
//! kills and respawns the host, and says whether the host can die.  Two
//! links implement it:
//!
//! - [`ProcessLink`]: a worker process (a re-exec of the current binary)
//!   behind a Unix socket;
//! - [`MemoryLink`]: the worker's own frame handler in this process,
//!   behind a pair of byte pipes.  Every frame still goes through encode,
//!   CRC, decode and the handler, as on a socket; the host answers inside
//!   `send`, so a reply that is not there when the supervisor looks never
//!   comes, and nothing ever waits.  A degraded slot is a memory link that
//!   cannot die; a simulated supervisor runs every slot on one that can.
//!
//! Scripted frame faults act on the bytes a link writes, so corruption
//! and truncation behave alike on both links.

use crate::error::{ClusterError, Result};
use crate::fault::FrameFault;
use crate::proto::{decode_incoming, Incoming, K_HELLO};
use crate::supervisor::ClusterConfig;
use crate::worker::{Handler, SOCKET_ENV};
use kalman_wire::{FrameReader, FrameWriter, Progress, WireError};
use std::any::Any;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One slot's connection to its shard host.
pub(crate) trait Link: Any {
    /// Writes one frame; a scripted `fault` acts on its bytes, and a
    /// truncation severs the link and is reported as an error.
    fn send(
        &mut self,
        kind: u8,
        payload: &[u8],
        fault: Option<FrameFault>,
    ) -> kalman_wire::Result<()>;
    /// The host's next frame, waited for until `deadline`.
    fn recv(&mut self, deadline: Instant, slot: usize) -> Result<Incoming>;
    /// Kills the host after giving it `grace` to exit on its own; a link
    /// that cannot die ignores it.
    fn kill(&mut self, grace: Duration);
    /// Replaces the host with a fresh one, whose first frame is `Hello`.
    /// A worker process is started after `backoff`; an in-memory host
    /// needs none.
    fn respawn(&mut self, cfg: &ClusterConfig, slot: usize, backoff: Duration) -> Result<()>;
    /// Whether the host can die — the one thing that decides whether the
    /// slot keeps a write-ahead log and takes checkpoints.
    fn can_die(&self) -> bool;
}

/// Writes one frame to `sink`, a scripted `fault` acting on its bytes.
/// Returns whether the fault severs the link.
fn write_frame<W: Write>(
    sink: &mut W,
    kind: u8,
    payload: &[u8],
    fault: Option<FrameFault>,
) -> kalman_wire::Result<bool> {
    match fault {
        None => FrameWriter::new(sink).send(kind, payload)?,
        Some(fault) => {
            sink.write_all(&fault.mangle(kind, payload))?;
            sink.flush()?;
        }
    }
    Ok(fault == Some(FrameFault::Truncate))
}

/// The error a severed link reports.
fn severed() -> WireError {
    WireError::Io(io::Error::new(
        io::ErrorKind::BrokenPipe,
        "fault injection: connection severed mid-frame",
    ))
}

/// Decodes a received frame, or says why none came: a timeout while the
/// host may still answer, a hang-up once it is gone.
fn incoming(progress: Progress<'_>, slot: usize) -> Result<Incoming> {
    match progress {
        Progress::Frame { kind, payload } => decode_incoming(kind, payload),
        Progress::Pending => Err(ClusterError::ReplyTimeout { slot }),
        Progress::Closed => Err(ClusterError::Protocol(format!(
            "worker {slot} hung up between frames"
        ))),
    }
}

/// Per-spawn nonce making socket paths unique.  Process-wide, not
/// per-supervisor: the path also carries only the pid and slot, so two
/// supervisors in one process counting from 0 would bind (and on drop
/// unlink) each other's sockets.
static SPAWN_NONCE: AtomicU64 = AtomicU64::new(0);

/// A worker process and its socket.
pub(crate) struct ProcessLink {
    child: Child,
    tx: UnixStream,
    rx: FrameReader<UnixStream>,
    pub(crate) socket_path: PathBuf,
}

impl ProcessLink {
    /// Spawns one worker process and accepts its connection (listen,
    /// exec, accept); the handshake is the supervisor's.
    pub(crate) fn spawn(cfg: &ClusterConfig, slot: usize) -> Result<ProcessLink> {
        // Relaxed: only the uniqueness of the fetched value matters; no
        // other memory is published under the counter.
        let nonce = SPAWN_NONCE.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "kalman-cluster-{}-{slot}-{nonce}.sock",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)
            .map_err(|e| ClusterError::Spawn(format!("bind {}: {e}", path.display())))?;
        listener.set_nonblocking(true)?;
        let exe = std::env::current_exe()
            .map_err(|e| ClusterError::Spawn(format!("current_exe: {e}")))?;
        let mut child = Command::new(exe)
            .args(&cfg.worker_args)
            .env(SOCKET_ENV, &path)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| ClusterError::Spawn(format!("exec worker: {e}")))?;
        kalman_obs::event("cluster.worker_spawn", slot as u64, child.id() as u64);

        let deadline = Instant::now() + cfg.spawn_timeout;
        let stream = loop {
            match listener.accept() {
                Ok((stream, _)) => break stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() > deadline {
                        let _ = child.kill();
                        let _ = child.wait();
                        let _ = std::fs::remove_file(&path);
                        return Err(ClusterError::Spawn(format!(
                            "worker {slot} did not connect within {:?}",
                            cfg.spawn_timeout
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e.into()),
            }
        };
        stream.set_nonblocking(false)?;
        stream.set_read_timeout(Some(cfg.heartbeat_timeout))?;
        Ok(ProcessLink {
            child,
            tx: stream.try_clone()?,
            rx: FrameReader::new(stream),
            socket_path: path,
        })
    }
}

impl Link for ProcessLink {
    fn send(
        &mut self,
        kind: u8,
        payload: &[u8],
        fault: Option<FrameFault>,
    ) -> kalman_wire::Result<()> {
        if write_frame(&mut self.tx, kind, payload, fault)? {
            let _ = self.tx.shutdown(std::net::Shutdown::Both);
            return Err(severed());
        }
        Ok(())
    }

    fn recv(&mut self, deadline: Instant, slot: usize) -> Result<Incoming> {
        // The socket's read timeout bounds each poll.
        loop {
            match self.rx.poll()? {
                Progress::Pending if Instant::now() <= deadline => {}
                progress => return incoming(progress, slot),
            }
        }
    }

    fn kill(&mut self, grace: Duration) {
        let deadline = Instant::now() + grace;
        while Instant::now() < deadline && matches!(self.child.try_wait(), Ok(None)) {
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    fn respawn(&mut self, cfg: &ClusterConfig, slot: usize, backoff: Duration) -> Result<()> {
        std::thread::sleep(backoff);
        *self = ProcessLink::spawn(cfg, slot)?;
        Ok(())
    }

    fn can_die(&self) -> bool {
        true
    }
}

impl Drop for ProcessLink {
    fn drop(&mut self) {
        self.kill(Duration::ZERO);
        let _ = std::fs::remove_file(&self.socket_path);
    }
}

/// One direction of a memory link: the bytes in flight, and whether the
/// writing side is gone.  Reading an open, empty pipe would block;
/// writing to a closed one is a broken pipe.
#[derive(Default)]
struct Pipe {
    bytes: VecDeque<u8>,
    closed: bool,
}

impl Read for Pipe {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.bytes.is_empty() && !self.closed {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        self.bytes.read(buf)
    }
}

impl Write for Pipe {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.closed {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        self.bytes.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The worker's frame handler in this process, behind two byte pipes.
pub(crate) struct MemoryLink {
    /// Supervisor → host frames.
    inbox: FrameReader<Pipe>,
    /// Host → supervisor frames.
    outbox: FrameReader<Pipe>,
    handler: Handler,
    can_die: bool,
}

impl MemoryLink {
    /// A fresh host, its `Hello` already sent.
    pub(crate) fn new(can_die: bool) -> MemoryLink {
        let mut link = MemoryLink {
            inbox: FrameReader::new(Pipe::default()),
            outbox: FrameReader::new(Pipe::default()),
            handler: Handler::default(),
            can_die,
        };
        // An open pipe takes every write.
        let _ = FrameWriter::new(link.outbox.get_mut()).send(K_HELLO, &[]);
        link
    }

    /// Runs the host over every complete frame in its inbox.  A frame it
    /// cannot serve, a severed inbox or a shutdown ends the host, as they
    /// end a worker process.
    fn serve(&mut self) {
        loop {
            let alive = match self.inbox.poll() {
                Ok(Progress::Frame { kind, payload }) => {
                    let mut tx = FrameWriter::new(self.outbox.get_mut());
                    matches!(self.handler.handle(kind, payload, &mut tx), Ok(true))
                }
                Ok(Progress::Pending) => return,
                Ok(Progress::Closed) | Err(_) => false,
            };
            if !alive {
                return self.close();
            }
        }
    }

    /// Ends the host.  The frames it already sent stay readable, as in a
    /// socket.
    fn close(&mut self) {
        self.inbox.get_mut().closed = true;
        self.outbox.get_mut().closed = true;
    }
}

impl Link for MemoryLink {
    fn send(
        &mut self,
        kind: u8,
        payload: &[u8],
        fault: Option<FrameFault>,
    ) -> kalman_wire::Result<()> {
        let inbox = self.inbox.get_mut();
        let severs = write_frame(inbox, kind, payload, fault)?;
        inbox.closed |= severs;
        self.serve();
        if severs {
            return Err(severed());
        }
        Ok(())
    }

    fn recv(&mut self, _deadline: Instant, slot: usize) -> Result<Incoming> {
        incoming(self.outbox.poll()?, slot)
    }

    fn kill(&mut self, _grace: Duration) {
        if self.can_die {
            self.close();
        }
    }

    fn respawn(&mut self, _cfg: &ClusterConfig, _slot: usize, _backoff: Duration) -> Result<()> {
        *self = MemoryLink::new(self.can_die);
        Ok(())
    }

    fn can_die(&self) -> bool {
        self.can_die
    }
}
