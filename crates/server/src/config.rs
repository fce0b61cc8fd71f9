//! Server configuration and the structured serving error type.

use std::fmt;
use std::io;
use std::time::Duration;

/// Errors from the serving front end, split by layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServerError {
    /// A socket failed to bind.
    Bind {
        /// The address that was requested.
        addr: String,
        /// The underlying socket error.
        source: io::Error,
    },
    /// Socket-level failure after binding (receive, send, clone).
    Io(io::Error),
    /// The configuration refuses to describe a runnable server.
    InvalidConfig(&'static str),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Bind { addr, source } => write!(f, "cannot bind {addr}: {source}"),
            ServerError::Io(e) => write!(f, "socket error: {e}"),
            ServerError::InvalidConfig(what) => write!(f, "invalid server config: {what}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Bind { source, .. } => Some(source),
            ServerError::Io(e) => Some(e),
            ServerError::InvalidConfig(_) => None,
        }
    }
}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> Self {
        ServerError::Io(e)
    }
}

/// Static serving configuration.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`ServerConfig::default()`] or the fluent
/// [`ServerConfig::builder()`], then adjust individual public fields —
/// the same idiom as `ResolverConfig` and `ScanConfig`, so new knobs
/// can land without breaking callers.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServerConfig {
    /// UDP bind address (`"127.0.0.1:0"` for an ephemeral port).
    pub udp_bind: String,
    /// TCP bind address. `None` (the default) reuses the bound UDP
    /// socket's address, so `dig` reaches both transports on one port
    /// even when the UDP port was ephemeral.
    pub tcp_bind: Option<String>,
    /// Number of UDP shard worker threads, each owning a cloned socket
    /// handle and its own receive loop.
    pub workers: usize,
    /// Server-side cap on UDP response payloads, bytes. The effective
    /// limit per response is `min(client's EDNS advertisement, this)`;
    /// larger responses are truncated to TC=1 so the client retries
    /// over TCP. Values below 512 are permitted (handy for forcing the
    /// truncation path in tests) even though RFC 6891 clients never
    /// advertise less.
    pub udp_payload_max: u16,
    /// Maximum simultaneously-open TCP connections; further accepts are
    /// closed immediately and counted as refused.
    pub tcp_conn_cap: usize,
    /// How long a TCP connection may sit idle (no complete request
    /// frame) before the server closes it.
    pub tcp_read_timeout: Duration,
    /// How long [`shutdown`](crate::ServerHandle::shutdown) waits for
    /// in-flight TCP connections to finish before abandoning them.
    pub drain_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, 4);
        ServerConfig {
            udp_bind: "127.0.0.1:0".to_string(),
            tcp_bind: None,
            workers,
            udp_payload_max: 1232,
            tcp_conn_cap: 64,
            tcp_read_timeout: Duration::from_secs(5),
            drain_deadline: Duration::from_secs(3),
        }
    }
}

impl ServerConfig {
    /// Start a fluent builder from the defaults.
    ///
    /// ```
    /// use ede_server::ServerConfig;
    /// use std::time::Duration;
    ///
    /// let config = ServerConfig::builder()
    ///     .bind("127.0.0.1:5300")
    ///     .workers(4)
    ///     .udp_payload_max(1232)
    ///     .tcp_conn_cap(128)
    ///     .drain_deadline(Duration::from_secs(1))
    ///     .build();
    /// assert_eq!(config.workers, 4);
    /// ```
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            config: ServerConfig::default(),
        }
    }

    /// Validate invariants the serving loops rely on.
    pub(crate) fn validate(&self) -> Result<(), ServerError> {
        if self.workers == 0 {
            return Err(ServerError::InvalidConfig("workers must be >= 1"));
        }
        if self.tcp_conn_cap == 0 {
            return Err(ServerError::InvalidConfig("tcp_conn_cap must be >= 1"));
        }
        // It is also each connection's write timeout, which the OS
        // refuses at zero: every connection would close unanswered.
        if self.tcp_read_timeout.is_zero() {
            return Err(ServerError::InvalidConfig("tcp_read_timeout must be > 0"));
        }
        Ok(())
    }
}

/// Fluent builder for [`ServerConfig`]; finish with
/// [`build`](ServerConfigBuilder::build).
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    /// Bind both transports at `addr` (the TCP listener reuses the
    /// bound UDP port, so `"127.0.0.1:0"` serves UDP and TCP on one
    /// ephemeral port).
    pub fn bind(mut self, addr: impl Into<String>) -> Self {
        self.config.udp_bind = addr.into();
        self.config.tcp_bind = None;
        self
    }

    /// Bind the UDP transport at `addr` without touching the TCP bind.
    pub fn udp_bind(mut self, addr: impl Into<String>) -> Self {
        self.config.udp_bind = addr.into();
        self
    }

    /// Bind the TCP listener at `addr` instead of mirroring UDP.
    pub fn tcp_bind(mut self, addr: impl Into<String>) -> Self {
        self.config.tcp_bind = Some(addr.into());
        self
    }

    /// Set the UDP shard worker count.
    pub fn workers(mut self, n: usize) -> Self {
        self.config.workers = n;
        self
    }

    /// Set the server-side UDP payload cap (bytes).
    pub fn udp_payload_max(mut self, bytes: u16) -> Self {
        self.config.udp_payload_max = bytes;
        self
    }

    /// Set the simultaneous TCP connection cap.
    pub fn tcp_conn_cap(mut self, n: usize) -> Self {
        self.config.tcp_conn_cap = n;
        self
    }

    /// Set the TCP idle read deadline.
    pub fn tcp_read_timeout(mut self, timeout: Duration) -> Self {
        self.config.tcp_read_timeout = timeout;
        self
    }

    /// Set the shutdown drain deadline.
    pub fn drain_deadline(mut self, deadline: Duration) -> Self {
        self.config.drain_deadline = deadline;
        self
    }

    /// Finish, yielding the configuration.
    pub fn build(self) -> ServerConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServerConfig::default();
        assert!(c.workers >= 1);
        assert_eq!(c.udp_payload_max, 1232);
        assert!(c.tcp_conn_cap >= 1);
        assert!(c.tcp_bind.is_none());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_round_trips_every_knob() {
        let c = ServerConfig::builder()
            .bind("127.0.0.1:5300")
            .tcp_bind("127.0.0.1:5301")
            .workers(7)
            .udp_payload_max(512)
            .tcp_conn_cap(9)
            .tcp_read_timeout(Duration::from_millis(750))
            .drain_deadline(Duration::from_millis(250))
            .build();
        assert_eq!(c.udp_bind, "127.0.0.1:5300");
        assert_eq!(c.tcp_bind.as_deref(), Some("127.0.0.1:5301"));
        assert_eq!(c.workers, 7);
        assert_eq!(c.udp_payload_max, 512);
        assert_eq!(c.tcp_conn_cap, 9);
        assert_eq!(c.tcp_read_timeout, Duration::from_millis(750));
        assert_eq!(c.drain_deadline, Duration::from_millis(250));
    }

    #[test]
    fn invalid_configs_rejected() {
        for c in [
            ServerConfig::builder().workers(0).build(),
            ServerConfig::builder().tcp_conn_cap(0).build(),
            ServerConfig::builder()
                .tcp_read_timeout(Duration::ZERO)
                .build(),
        ] {
            let verdict = c.validate();
            assert!(
                matches!(verdict, Err(ServerError::InvalidConfig(_))),
                "{c:?}"
            );
        }
    }

    #[test]
    fn error_display_names_the_layer() {
        let bind = ServerError::Bind {
            addr: "127.0.0.1:53".into(),
            source: io::Error::from(io::ErrorKind::PermissionDenied),
        };
        assert!(bind.to_string().contains("cannot bind 127.0.0.1:53"));
        assert!(
            ServerError::from(io::Error::from(io::ErrorKind::BrokenPipe))
                .to_string()
                .contains("socket error")
        );
        assert!(std::error::Error::source(&bind).is_some());
    }
}
