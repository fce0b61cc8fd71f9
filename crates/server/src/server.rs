//! The server core: socket setup, worker lifecycle, and the owner's
//! handle.
//!
//! [`Server::spawn`] binds real OS sockets, starts the UDP shard
//! workers and the TCP acceptor, and returns a [`ServerHandle`]. The
//! handle is the only way to interact with a running server: read the
//! bound addresses (ephemeral ports resolve here), sample live
//! [`ServerStats`], and perform the graceful shutdown — raise the stop
//! flag, join the workers, and wait out the connection drain.

use crate::config::{ServerConfig, ServerError};
use crate::{tcp, udp};
use ede_resolver::{CacheStatsSnapshot, Resolver};
use ede_trace::{Metrics, MetricsSnapshot};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// State shared by every worker, acceptor, and connection thread.
pub(crate) struct Shared {
    pub(crate) resolver: Resolver,
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) stop: AtomicBool,
    pub(crate) active_conns: AtomicUsize,
    pub(crate) config: ServerConfig,
}

/// Whether a socket error is no reason to leave a serving loop: the poll
/// tick expiring (both spellings) or a signal landing mid-call.
pub(crate) fn is_transient(kind: ErrorKind) -> bool {
    use ErrorKind::{Interrupted, TimedOut, WouldBlock};
    matches!(kind, WouldBlock | TimedOut | Interrupted)
}

/// How long a blocking socket call waits before its loop re-checks the
/// stop flag and its deadlines; data arriving mid-wait returns at once.
pub(crate) const POLL_TICK: Duration = Duration::from_millis(25);

/// How long [`ServerHandle::shutdown`] waits for open TCP connections to
/// finish, and how long a handler stopped mid-frame waits for the rest.
pub(crate) const DRAIN_DEADLINE: Duration = Duration::from_secs(3);

/// A handling time as the latency histogram takes it.
pub(crate) fn micros(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)
}

/// How many ephemeral UDP ports [`bind_sockets`] tries before it gives
/// up on finding one whose TCP twin is free.
const EPHEMERAL_BIND_ATTEMPTS: usize = 8;

/// Bind the UDP socket and the TCP listener. With no explicit TCP bind
/// the listener mirrors the *bound* UDP address, so an ephemeral UDP port
/// yields both transports on the same port (what a stub resolver doing
/// TC=1 → TCP retry expects). That twin port can still be taken — by a
/// client connection in TIME_WAIT, say — so when the kernel chose the
/// UDP port, an `AddrInUse` on TCP asks it for another. The rejected
/// sockets stay open until the end, so the kernel cannot hand one back.
/// A port the caller named fails at once.
fn bind_sockets(config: &ServerConfig) -> Result<(UdpSocket, TcpListener), ServerError> {
    let ephemeral = config.tcp_bind.is_none()
        && config
            .udp_bind
            .rsplit_once(':')
            .is_some_and(|(_, port)| port == "0");
    let mut rejected = Vec::new();
    loop {
        let udp = UdpSocket::bind(&config.udp_bind).map_err(|source| ServerError::Bind {
            addr: config.udp_bind.clone(),
            source,
        })?;
        let tcp_bind = match &config.tcp_bind {
            Some(addr) => addr.clone(),
            None => udp.local_addr()?.to_string(),
        };
        match TcpListener::bind(&tcp_bind) {
            Ok(listener) => return Ok((udp, listener)),
            Err(e)
                if ephemeral
                    && e.kind() == ErrorKind::AddrInUse
                    && rejected.len() + 1 < EPHEMERAL_BIND_ATTEMPTS =>
            {
                rejected.push(udp);
            }
            Err(source) => {
                return Err(ServerError::Bind {
                    addr: tcp_bind,
                    source,
                })
            }
        }
    }
}

/// The serving front end. A `Server` is not held after start — spawning
/// consumes the configuration and hands back a [`ServerHandle`].
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Bind sockets and start serving `resolver` per `config`.
    ///
    /// The resolver is moved in and shared across all workers (it is
    /// thread-safe). Returns the handle once every thread is running
    /// and both transports are reachable.
    pub fn spawn(resolver: Resolver, config: ServerConfig) -> Result<ServerHandle, ServerError> {
        config.validate()?;

        let (udp, listener) = bind_sockets(&config)?;
        let udp_addr = udp.local_addr()?;
        let tcp_addr = listener.local_addr()?;

        let shared = Arc::new(Shared {
            resolver,
            metrics: Arc::new(Metrics::new()),
            stop: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            config,
        });

        let mut threads = Vec::with_capacity(shared.config.workers + 1);
        for w in 0..shared.config.workers {
            let socket = udp.try_clone()?;
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("ede-udp-{w}"))
                    .spawn(move || udp::run_udp_worker(&shared, &socket))?,
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("ede-tcp-accept".to_string())
                    .spawn(move || tcp::run_acceptor(shared, listener))?,
            );
        }

        Ok(ServerHandle {
            udp_addr,
            tcp_addr,
            started: Instant::now(),
            shared,
            threads,
        })
    }
}

/// Owner's handle to a running server.
///
/// Dropping the handle without calling
/// [`shutdown`](ServerHandle::shutdown) aborts: the stop flag is raised
/// and threads are detached (not joined) — fine for tests, rude for
/// clients mid-request. Call `shutdown` for the graceful drain.
pub struct ServerHandle {
    udp_addr: SocketAddr,
    tcp_addr: SocketAddr,
    started: Instant,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound UDP address (ephemeral ports resolved).
    pub fn udp_addr(&self) -> SocketAddr {
        self.udp_addr
    }

    /// The bound TCP address.
    pub fn tcp_addr(&self) -> SocketAddr {
        self.tcp_addr
    }

    /// Sample current serving statistics without stopping anything.
    pub fn stats(&self) -> ServerStats {
        self.build_stats(None)
    }

    /// Raise the stop flag without waiting. Workers finish their
    /// current batch/request and exit; use
    /// [`shutdown`](ServerHandle::shutdown) to also join and drain.
    pub fn trigger_shutdown(&self) {
        // Only the call that raises the flag wakes the acceptor: by the
        // next one its listener may be closed and the port reused.
        if !self.shared.stop.swap(true, Ordering::AcqRel) {
            tcp::wake_acceptor(self.tcp_addr);
        }
    }

    /// Gracefully stop: raise the stop flag, join every worker and the
    /// acceptor, then wait up to the drain deadline (3 s) for
    /// in-flight TCP connections to finish. Returns the final stats;
    /// [`ServerStats::drained`] reports whether every connection closed
    /// inside the deadline.
    pub fn shutdown(mut self) -> Result<ServerStats, ServerError> {
        self.trigger_shutdown();
        for t in self.threads.drain(..) {
            // A panicked worker is already reflected in the metrics gap;
            // joining the rest still matters more than propagating it.
            let _ = t.join();
        }
        let deadline = Instant::now() + DRAIN_DEADLINE;
        while self.shared.active_conns.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let drained = self.shared.active_conns.load(Ordering::Acquire) == 0;
        Ok(self.build_stats(Some(drained)))
    }

    fn build_stats(&self, drained: Option<bool>) -> ServerStats {
        ServerStats {
            udp_addr: self.udp_addr,
            tcp_addr: self.tcp_addr,
            workers: self.shared.config.workers,
            uptime: self.started.elapsed(),
            active_tcp_conns: self.shared.active_conns.load(Ordering::Acquire),
            drained: drained.unwrap_or(true),
            metrics: self.shared.metrics.snapshot(),
            cache: self.shared.resolver.cache_stats(),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.trigger_shutdown();
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("udp_addr", &self.udp_addr)
            .field("tcp_addr", &self.tcp_addr)
            .field("workers", &self.shared.config.workers)
            .finish_non_exhaustive()
    }
}

/// A point-in-time view of a server: identity, gauges, and the full
/// metrics snapshot.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServerStats {
    /// Bound UDP address.
    pub udp_addr: SocketAddr,
    /// Bound TCP address.
    pub tcp_addr: SocketAddr,
    /// UDP shard workers spawned.
    pub workers: usize,
    /// Time since [`Server::spawn`] returned.
    pub uptime: Duration,
    /// TCP connections currently open.
    pub active_tcp_conns: usize,
    /// After [`shutdown`](ServerHandle::shutdown): whether every
    /// connection closed inside the drain deadline. `true` on live
    /// samples.
    pub drained: bool,
    /// The server's registry: its server section holds the counters
    /// and the handling-latency histogram (nothing feeds its resolution
    /// section).
    pub metrics: MetricsSnapshot,
    /// The resolver's shared answer cache: probes, stored entries, and
    /// the dead (`expired`) and live (`evicted`) entries the entry
    /// budget's sweep removed.
    pub cache: CacheStatsSnapshot,
}

impl ServerStats {
    /// UDP shard workers that have not left their loop on a socket
    /// error, of the [`workers`](Self::workers) spawned.
    pub fn udp_workers_alive(&self) -> usize {
        let died = usize::try_from(self.metrics.udp_workers_died).unwrap_or(usize::MAX);
        self.workers.saturating_sub(died)
    }

    /// Whether the TCP acceptor has not left its loop on a socket error.
    pub fn tcp_acceptor_alive(&self) -> bool {
        self.metrics.tcp_acceptors_died == 0
    }

    /// Render as an operator-facing summary block.
    pub fn render(&self) -> String {
        let mut out = format!(
            "ede-server on udp {} / tcp {} — {} of {} workers alive, acceptor {}, up {:.1}s, {} open conns{}\n",
            self.udp_addr,
            self.tcp_addr,
            self.udp_workers_alive(),
            self.workers,
            if self.tcp_acceptor_alive() {
                "alive"
            } else {
                "DEAD"
            },
            self.uptime.as_secs_f64(),
            self.active_tcp_conns,
            if self.drained {
                ""
            } else {
                " (DRAIN TIMED OUT)"
            },
        );
        out.push_str(&self.metrics.render());
        out.push_str(&format!(
            "  cache     : {} hits, {} misses, {} live, {} evicted\n",
            self.cache.hits, self.cache.misses, self.cache.occupancy, self.cache.evicted
        ));
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ede_resolver::Vendor;
    use ede_testbed::Testbed;

    /// What a worker, acceptor or handler shares, over `tb`'s resolver
    /// as Cloudflare, with the default configuration.
    pub(crate) fn shared(tb: &Testbed) -> Shared {
        Shared {
            resolver: tb.resolver(Vendor::Cloudflare),
            metrics: Arc::new(Metrics::new()),
            stop: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            config: ServerConfig::default(),
        }
    }

    /// Timeouts and EINTR keep a loop running; what says the socket or
    /// the peer is gone ends it.
    #[test]
    fn only_timeouts_and_interrupts_are_transient() {
        use ErrorKind::*;
        for kind in [WouldBlock, TimedOut, Interrupted] {
            assert!(is_transient(kind), "{kind:?}");
        }
        for kind in [
            ConnectionReset,
            ConnectionAborted,
            ConnectionRefused,
            BrokenPipe,
            NotConnected,
            InvalidInput,
            UnexpectedEof,
            WriteZero,
            OutOfMemory,
            Other,
        ] {
            assert!(!is_transient(kind), "{kind:?}");
        }
    }
}
