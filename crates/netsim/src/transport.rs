//! The simulated network: routing, latency, timeouts, fault plans, and
//! the stream (TCP-analogue) channel.

use crate::addr::classify;
use crate::clock::SimClock;
use crate::fault::FaultPlan;
use ede_trace::{Striped, TraceEvent, TraceSink, Tracer, TracerCell};
use ede_wire::{Message, Rcode};
use std::collections::HashMap;
use std::fmt;
use std::net::IpAddr;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

/// What a server does with one query.
pub enum ServerResponse {
    /// Send this message back.
    Reply(Message),
    /// Silently drop the query (the client will time out). Models dead
    /// servers, firewalls, and hosts that never existed.
    Drop,
}

/// A DNS server attached to the network.
///
/// Implementations must be `Send + Sync`: the scanner queries one shared
/// network from many worker threads. Any interior state (counters, flap
/// schedules) must use interior mutability.
pub trait Server: Send + Sync {
    /// Handle one query arriving from `src` at simulated time `now`
    /// (seconds), on either channel. The reply is the full answer:
    /// truncating an oversized datagram reply is the link's business
    /// (the fault plan's response-size model), never the server's.
    fn handle(&self, query: &Message, src: IpAddr, now: u32) -> ServerResponse;
}

/// Transport-level failures, as a resolver perceives them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetError {
    /// The destination is a special-purpose address — packets can never
    /// be delivered. Carries the same latency cost as a timeout, because
    /// a real resolver cannot tell the difference.
    Unroutable,
    /// No reply within the timeout (dead host, silent drop, loss).
    Timeout,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Unroutable => write!(f, "destination unroutable"),
            NetError::Timeout => write!(f, "query timed out"),
        }
    }
}

/// Tunables for the network.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// One-way latency charged per delivered query/response pair, in
    /// milliseconds.
    pub rtt_ms: u64,
    /// How long a client waits before declaring a timeout, in
    /// milliseconds.
    pub timeout_ms: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            rtt_ms: 20,
            timeout_ms: 2_000,
        }
    }
}

/// Builder for an immutable [`Network`].
#[derive(Default)]
pub struct NetworkBuilder {
    routes: HashMap<IpAddr, Arc<dyn Server>>,
    config: NetworkConfig,
}

impl NetworkBuilder {
    /// Start an empty network with default config.
    pub fn new() -> Self {
        NetworkBuilder {
            routes: HashMap::new(),
            config: NetworkConfig::default(),
        }
    }

    /// Replace the network config.
    pub fn config(mut self, config: NetworkConfig) -> Self {
        self.config = config;
        self
    }

    /// Attach `server` at `addr`. Registering a special-purpose address
    /// is allowed but pointless: the transport refuses to route to it —
    /// exactly the testbed's bad-glue situation.
    pub fn register(&mut self, addr: IpAddr, server: Arc<dyn Server>) -> &mut Self {
        self.routes.insert(addr, server);
        self
    }

    /// Freeze into a shareable network.
    pub fn build(self, clock: SimClock) -> Network {
        Network {
            routes: self.routes,
            config: self.config,
            clock,
            stats: TrafficStats::default(),
            capture: CaptureCell::default(),
            tracer: TracerCell::default(),
            faults: FaultCell::default(),
        }
    }
}

/// The fault-plan slot: no plan attached costs one atomic load per
/// query, an attached one a read lock and an `Arc` clone (chaos runs
/// only).
#[derive(Default)]
struct FaultCell {
    enabled: std::sync::atomic::AtomicBool,
    slot: std::sync::RwLock<Option<Arc<FaultPlan>>>,
}

impl FaultCell {
    fn set(&self, plan: Option<Arc<FaultPlan>>) {
        use std::sync::atomic::Ordering;
        let on = plan.is_some();
        *self.slot.write().expect("no poisoning") = plan;
        self.enabled.store(on, Ordering::Release);
    }

    fn get(&self) -> Option<Arc<FaultPlan>> {
        use std::sync::atomic::Ordering;
        if !self.enabled.load(Ordering::Acquire) {
            return None;
        }
        self.slot.read().expect("no poisoning").clone()
    }
}

/// The capture slot, same shape: captures are a
/// debugging tool, so the per-query cost while *not* capturing is one
/// atomic load.
#[derive(Default)]
struct CaptureCell {
    enabled: std::sync::atomic::AtomicBool,
    slot: Mutex<Option<Vec<CapturedQuery>>>,
}

impl CaptureCell {
    fn start(&self) {
        use std::sync::atomic::Ordering;
        *self.slot.lock().expect("no poisoning") = Some(Vec::new());
        self.enabled.store(true, Ordering::Release);
    }

    fn take(&self) -> Vec<CapturedQuery> {
        use std::sync::atomic::Ordering;
        self.enabled.store(false, Ordering::Release);
        self.slot
            .lock()
            .expect("no poisoning")
            .take()
            .unwrap_or_default()
    }

    fn recording(&self) -> bool {
        self.enabled.load(std::sync::atomic::Ordering::Acquire)
    }

    fn push(&self, captured: CapturedQuery) {
        if let Some(cap) = self.slot.lock().expect("no poisoning").as_mut() {
            cap.push(captured);
        }
    }
}

/// Counters over everything a network carried — the simulated analogue
/// of the paper's §5 traffic accounting ("peaked at 11.5 K packets per
/// second … 12 hours in total"). Every exchange counts from the thread
/// that made it, into that thread's stripe ([`Striped`]); a snapshot
/// sums them.
#[derive(Debug, Default)]
pub struct TrafficStats(Striped<TrafficCounts>);

/// One stripe of [`TrafficStats`]; the fields are [`TrafficSnapshot`]'s.
#[derive(Debug, Default)]
struct TrafficCounts {
    queries: AtomicU64,
    delivered: AtomicU64,
    failed: AtomicU64,
    stream_queries: AtomicU64,
    truncated: AtomicU64,
    faults: AtomicU64,
}

impl TrafficStats {
    /// Snapshot (queries, delivered, failed).
    pub fn snapshot(&self) -> (u64, u64, u64) {
        let full = self.snapshot_full();
        (full.queries, full.delivered, full.failed)
    }

    /// Full snapshot including the robustness-layer counters.
    pub fn snapshot_full(&self) -> TrafficSnapshot {
        let c = &self.0;
        TrafficSnapshot {
            queries: c.sum(|c| &c.queries),
            delivered: c.sum(|c| &c.delivered),
            failed: c.sum(|c| &c.failed),
            stream_queries: c.sum(|c| &c.stream_queries),
            truncated: c.sum(|c| &c.truncated),
            faults: c.sum(|c| &c.faults),
        }
    }
}

/// A frozen copy of [`TrafficStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficSnapshot {
    /// Queries attempted on either channel.
    pub queries: u64,
    /// Queries that received a reply.
    pub delivered: u64,
    /// Queries that failed at the transport.
    pub failed: u64,
    /// Queries carried over the stream channel (subset of `queries`).
    pub stream_queries: u64,
    /// UDP replies truncated by the response-size model.
    pub truncated: u64,
    /// Fault-plan decisions that fired.
    pub faults: u64,
}

/// One captured query (when capture is enabled).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapturedQuery {
    /// Destination server.
    pub dst: IpAddr,
    /// Queried name (as a dotted string, to keep the capture cheap).
    pub qname: String,
    /// Queried type, numeric.
    pub qtype: u16,
}

/// The frozen, thread-safe network.
pub struct Network {
    routes: HashMap<IpAddr, Arc<dyn Server>>,
    config: NetworkConfig,
    clock: SimClock,
    stats: TrafficStats,
    capture: CaptureCell,
    tracer: TracerCell,
    faults: FaultCell,
}

/// Which of a server's two channels an exchange uses.
#[derive(Clone, Copy, PartialEq)]
enum Channel {
    Datagram,
    Stream,
}

impl Network {
    /// The shared clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Traffic counters accumulated since the network was built.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Start recording every query (a tcpdump for the simulation —
    /// compare the smoltcp examples' `--pcap` option). Clears any
    /// previous capture.
    pub fn start_capture(&self) {
        self.capture.start();
    }

    /// Stop capturing and return what was recorded.
    pub fn take_capture(&self) -> Vec<CapturedQuery> {
        self.capture.take()
    }

    /// Attach a trace sink: every subsequent query emits `QuerySent`
    /// plus `ResponseReceived`/`Timeout` events stamped with this
    /// network's virtual clock.
    pub fn set_trace_sink(&self, sink: Arc<dyn TraceSink>) {
        self.tracer
            .set(Tracer::new(sink, Arc::new(self.clock.clone())));
    }

    /// Detach any trace sink.
    pub fn clear_trace_sink(&self) {
        self.tracer.set(Tracer::disabled());
    }

    /// Attach a fault plan. A no-op plan (see [`FaultPlan::is_noop`])
    /// is dropped outright, keeping the fault-free fast path at one
    /// atomic load.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.faults.set((!plan.is_noop()).then(|| Arc::new(plan)));
    }

    /// The currently attached tracer: this thread's copy of it, no lock
    /// and no shared reference count (see [`TracerCell`]); disabled when
    /// no sink is attached, which costs one atomic load.
    pub fn tracer(&self) -> Tracer {
        self.tracer.get()
    }

    /// Send `query` to `dst` from `src` and wait for the reply.
    ///
    /// The send-time effects come first: the query counter, capture, the
    /// `QuerySent` trace event, routability and fault-plan checks, and
    /// the server's handler (servers are synchronous state machines).
    /// Then the outcome's: the clock moves **to** the exchange's deadline
    /// (a no-op when an exchange of another thread already moved time
    /// past it), the delivered/failed counter ticks, and a
    /// `ResponseReceived` / `Timeout` event is emitted.
    ///
    /// Latency accounting: a delivered exchange's deadline is one RTT
    /// past the send instant; every failure's (unroutable, silent drop,
    /// loss, no route) is the full timeout past, as the querier has to
    /// wait that long to learn nothing.
    pub fn query(&self, dst: IpAddr, src: IpAddr, query: &Message) -> Result<Message, NetError> {
        self.exchange(Channel::Datagram, dst, src, query)
    }

    /// Stream-channel (TCP-analogue) counterpart of [`Network::query`].
    ///
    /// Streams cost one extra RTT for connection setup and are exempt
    /// from the fault plan — loss, corruption and the response-size
    /// model are per-datagram; a real TCP connection retransmits and
    /// carries any size.
    pub fn query_stream(
        &self,
        dst: IpAddr,
        src: IpAddr,
        query: &Message,
    ) -> Result<Message, NetError> {
        self.exchange(Channel::Stream, dst, src, query)
    }

    /// One exchange on either channel.
    fn exchange(
        &self,
        channel: Channel,
        dst: IpAddr,
        src: IpAddr,
        query: &Message,
    ) -> Result<Message, NetError> {
        let datagram = channel == Channel::Datagram;
        self.stats.0.bump(|c| &c.queries);
        if !datagram {
            self.stats.0.bump(|c| &c.stream_queries);
        }
        let tracer = self.tracer.get();
        // Capture records what the datagram channel carried.
        let recording = datagram && self.capture.recording();
        let question = query.first_question();
        let qtype = question.map_or(0, |q| q.qtype.to_u16());
        // Rendering the question to a string costs an allocation per
        // query; skip it entirely unless someone is actually watching.
        // A metrics-only sink counts events without reading qnames, so
        // it rides the cheap path too (wants_query_detail is false).
        let qname = if tracer.wants_query_detail() || recording {
            question.map_or_else(|| String::from("-"), |q| q.name.to_string())
        } else {
            String::new()
        };
        if recording && question.is_some() {
            self.capture.push(CapturedQuery {
                dst,
                qname: qname.clone(),
                qtype,
            });
        }
        tracer.emit(TraceEvent::QuerySent {
            dst,
            qname: qname.clone(),
            qtype,
            id: query.id,
        });
        let now_ms = self.clock.now_millis();
        match self.deliver(datagram, dst, src, query, &tracer) {
            Ok((msg, latency_ms)) => {
                self.clock.advance_to_millis(now_ms + latency_ms);
                self.stats.0.bump(|c| &c.delivered);
                tracer.emit(TraceEvent::ResponseReceived {
                    src: dst,
                    rcode: msg.rcode.to_u16(),
                    answers: msg.answers.len(),
                    latency_ms,
                });
                Ok(msg)
            }
            Err((unroutable, error)) => {
                self.clock
                    .advance_to_millis(now_ms + self.config.timeout_ms);
                self.stats.0.bump(|c| &c.failed);
                tracer.emit(TraceEvent::Timeout {
                    dst,
                    qname,
                    unroutable,
                });
                Err(error)
            }
        }
    }

    /// The far side of an exchange: the server's reply as the link
    /// delivers it, with its latency, or why none arrives (whether the
    /// destination was unroutable, and the error).
    fn deliver(
        &self,
        datagram: bool,
        dst: IpAddr,
        src: IpAddr,
        query: &Message,
        tracer: &Tracer,
    ) -> Result<(Message, u64), (bool, NetError)> {
        if !classify(dst).is_routable() {
            return Err((true, NetError::Unroutable));
        }
        let Some(server) = self.routes.get(&dst) else {
            return Err((false, NetError::Timeout));
        };
        // Loss, corruption and the response-size model are
        // per-datagram: a stream retransmits and carries any size.
        let plan = if datagram { self.faults.get() } else { None };
        if let Some(plan) = &plan {
            if plan.loses(dst, query) {
                self.inject(tracer, "loss", dst);
                return Err((false, NetError::Timeout));
            }
        }
        let now_secs = self.clock.now_secs();
        let ServerResponse::Reply(mut msg) = server.handle(query, src, now_secs) else {
            return Err((false, NetError::Timeout));
        };
        // A stream pays one more round trip, for connection setup.
        let latency_ms = if datagram {
            self.config.rtt_ms
        } else {
            2 * self.config.rtt_ms
        };
        if let Some(plan) = &plan {
            if plan.corrupts(dst, query) {
                self.inject(tracer, "corrupt", dst);
                let mut garbled = Message::response_to(query);
                garbled.rcode = Rcode::FormErr;
                // Echo the client's OPT: the damage is to the
                // payload, not the EDNS negotiation, so resolvers
                // classify this as a FORMERR rcode failure rather
                // than "no EDNS support".
                garbled.edns = query.edns.clone();
                msg = garbled;
            }
            if let Some(limit) = plan.negotiated_limit(query) {
                if msg.encoded_len() > usize::from(limit) {
                    msg = msg.truncated_copy();
                    self.stats.0.bump(|c| &c.truncated);
                }
            }
        }
        Ok((msg, latency_ms))
    }

    /// Count one fired fault decision and surface it to any tracer.
    fn inject(&self, tracer: &Tracer, kind: &'static str, dst: IpAddr) {
        self.stats.0.bump(|c| &c.faults);
        tracer.emit(TraceEvent::FaultInjected { kind, dst });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ede_wire::{Name, Rcode, RrType};

    /// A server echoing NOERROR to everything.
    struct Echo;
    impl Server for Echo {
        fn handle(&self, query: &Message, _src: IpAddr, _now: u32) -> ServerResponse {
            let mut r = Message::response_to(query);
            r.rcode = Rcode::NoError;
            ServerResponse::Reply(r)
        }
    }

    /// A server that never answers.
    struct BlackHole;
    impl Server for BlackHole {
        fn handle(&self, _q: &Message, _src: IpAddr, _now: u32) -> ServerResponse {
            ServerResponse::Drop
        }
    }

    fn q(id: u16) -> Message {
        Message::query(id, Name::parse("example.com").unwrap(), RrType::A)
    }

    fn client() -> IpAddr {
        "198.51.100.99".parse::<IpAddr>().unwrap() // doc range is fine as src
    }

    #[test]
    fn delivered_query_advances_rtt() {
        let mut b = NetworkBuilder::new();
        b.register("93.184.216.34".parse().unwrap(), Arc::new(Echo));
        let clock = SimClock::new();
        let t0 = clock.now_millis();
        let net = b.build(clock);
        let reply = net
            .query("93.184.216.34".parse().unwrap(), client(), &q(1))
            .unwrap();
        assert!(reply.response);
        assert_eq!(net.clock().now_millis() - t0, 20);
    }

    #[test]
    fn unroutable_special_addresses() {
        let net = NetworkBuilder::new().build(SimClock::new());
        for dst in ["10.0.0.1", "192.0.2.1", "127.0.0.1", "0.0.0.0"] {
            assert_eq!(
                net.query(dst.parse().unwrap(), client(), &q(2)),
                Err(NetError::Unroutable),
                "{dst}"
            );
        }
        assert_eq!(
            net.query("fe80::1".parse().unwrap(), client(), &q(3)),
            Err(NetError::Unroutable)
        );
    }

    #[test]
    fn unregistered_routable_address_times_out() {
        let net = NetworkBuilder::new().build(SimClock::new());
        let t0 = net.clock().now_millis();
        assert_eq!(
            net.query("93.184.216.34".parse().unwrap(), client(), &q(4)),
            Err(NetError::Timeout)
        );
        assert_eq!(net.clock().now_millis() - t0, 2_000);
    }

    #[test]
    fn black_hole_times_out() {
        let mut b = NetworkBuilder::new();
        b.register("93.184.216.34".parse().unwrap(), Arc::new(BlackHole));
        let net = b.build(SimClock::new());
        assert_eq!(
            net.query("93.184.216.34".parse().unwrap(), client(), &q(5)),
            Err(NetError::Timeout)
        );
    }

    /// The five exchange shapes, pinned literally.
    #[test]
    fn the_five_exchange_shapes_are_pinned() {
        use ede_trace::{ResolutionTrace, TimedEvent};

        let echo: IpAddr = "93.184.216.34".parse().unwrap();
        let hole: IpAddr = "93.184.216.35".parse().unwrap();
        let special: IpAddr = "192.0.2.1".parse().unwrap();
        let nobody: IpAddr = "93.184.216.99".parse().unwrap();
        let mut b = NetworkBuilder::new();
        b.register(echo, Arc::new(Echo));
        b.register(hole, Arc::new(BlackHole));
        let net = b.build(SimClock::new());
        let trace = Arc::new(ResolutionTrace::new(64));
        net.set_trace_sink(trace.clone());
        let t0 = net.clock().now_millis();

        let results: Vec<_> = [(echo, 1), (hole, 2), (special, 3), (nobody, 4), (echo, 5)]
            .iter()
            .map(|&(dst, id)| net.query(dst, client(), &q(id)).map(|m| (m.id, m.rcode)))
            .collect();
        assert_eq!(
            results,
            vec![
                Ok((1, Rcode::NoError)),
                Err(NetError::Timeout),
                Err(NetError::Unroutable),
                Err(NetError::Timeout),
                Ok((5, Rcode::NoError)),
            ]
        );

        let sent = |at: u64, dst: IpAddr, id: u16| TimedEvent {
            at_ms: t0 + at,
            event: TraceEvent::QuerySent {
                dst,
                qname: "example.com.".into(),
                qtype: 1,
                id,
            },
        };
        let received = |at: u64| TimedEvent {
            at_ms: t0 + at,
            event: TraceEvent::ResponseReceived {
                src: echo,
                rcode: 0,
                answers: 0,
                latency_ms: 20,
            },
        };
        let timeout = |at: u64, dst: IpAddr, unroutable: bool| TimedEvent {
            at_ms: t0 + at,
            event: TraceEvent::Timeout {
                dst,
                qname: "example.com.".into(),
                unroutable,
            },
        };
        // One RTT per delivery, the full timeout per failure; each
        // outcome is stamped at its deadline, each send at the previous
        // outcome's.
        assert_eq!(
            trace.events(),
            vec![
                sent(0, echo, 1),
                received(20),
                sent(20, hole, 2),
                timeout(2_020, hole, false),
                sent(2_020, special, 3),
                timeout(4_020, special, true),
                sent(4_020, nobody, 4),
                timeout(6_020, nobody, false),
                sent(6_020, echo, 5),
                received(6_040),
            ]
        );
        assert_eq!(net.clock().now_millis(), t0 + 6_040);
        assert_eq!(
            net.stats().snapshot_full(),
            TrafficSnapshot {
                queries: 5,
                delivered: 2,
                failed: 3,
                ..Default::default()
            }
        );
    }

    #[test]
    fn stream_exchange_is_pinned() {
        let dst: IpAddr = "93.184.216.34".parse().unwrap();
        let mut b = NetworkBuilder::new();
        b.register(dst, Arc::new(Echo));
        let net = b.build(SimClock::new());
        let t0 = net.clock().now_millis();
        assert_eq!(net.query_stream(dst, client(), &q(7)).map(|m| m.id), Ok(7));
        assert_eq!(net.clock().now_millis(), t0 + 40, "handshake + exchange");
        assert_eq!(
            net.stats().snapshot_full(),
            TrafficSnapshot {
                queries: 1,
                delivered: 1,
                stream_queries: 1,
                ..Default::default()
            }
        );
    }

    /// A server whose answers are large enough to exceed any sane UDP
    /// payload cap.
    struct BigAnswer;
    impl Server for BigAnswer {
        fn handle(&self, query: &Message, _src: IpAddr, _now: u32) -> ServerResponse {
            use ede_wire::{Rdata, Record};
            let mut r = Message::response_to(query);
            r.edns = Some(ede_wire::Edns::default());
            for i in 0..40 {
                r.answers.push(Record::new(
                    Name::parse(&format!("r{i}.example.com")).unwrap(),
                    60,
                    Rdata::Txt(vec![vec![b'x'; 60]]),
                ));
            }
            ServerResponse::Reply(r)
        }
    }

    #[test]
    fn stream_channel_costs_two_rtts_and_skips_truncation() {
        let dst: IpAddr = "93.184.216.34".parse().unwrap();
        let mut b = NetworkBuilder::new();
        b.register(dst, Arc::new(BigAnswer));
        let net = b.build(SimClock::new());
        net.set_fault_plan(FaultPlan::new(1).with_udp_payload_limit(1232));

        // The datagram path truncates the oversized reply.
        let udp = net.query(dst, client(), &q(1)).unwrap();
        assert!(udp.truncated);
        assert!(udp.answers.is_empty());

        // The stream path serves it whole, at handshake + exchange cost.
        let t0 = net.clock().now_millis();
        let tcp = net.query_stream(dst, client(), &q(2)).unwrap();
        assert!(!tcp.truncated);
        assert_eq!(tcp.answers.len(), 40);
        assert_eq!(net.clock().now_millis() - t0, 40);

        let full = net.stats().snapshot_full();
        assert_eq!(full.queries, 2);
        assert_eq!(full.stream_queries, 1);
        assert_eq!(full.truncated, 1);
        assert_eq!(full.faults, 0, "truncation is protocol, not a fault");
    }

    #[test]
    fn truncation_respects_client_advertisement() {
        let dst: IpAddr = "93.184.216.34".parse().unwrap();
        let mut b = NetworkBuilder::new();
        b.register(dst, Arc::new(BigAnswer));
        let net = b.build(SimClock::new());
        // Generous link cap: the reply (~3 KB) still exceeds the
        // client's own 1232-byte advertisement.
        net.set_fault_plan(FaultPlan::new(1).with_udp_payload_limit(60_000));
        assert!(net.query(dst, client(), &q(1)).unwrap().truncated);
    }

    #[test]
    fn injected_loss_is_deterministic_and_counted() {
        let dst: IpAddr = "93.184.216.34".parse().unwrap();
        let run = || {
            let mut b = NetworkBuilder::new();
            b.register(dst, Arc::new(Echo));
            let net = b.build(SimClock::new());
            net.set_fault_plan(FaultPlan {
                corrupt: 0.1,
                ..FaultPlan::new(99).with_loss(0.25)
            });
            let outcomes: Vec<u16> = (0..400)
                .map(|i| match net.query(dst, client(), &q(i)) {
                    Ok(m) => m.rcode.to_u16(),
                    Err(_) => u16::MAX,
                })
                .collect();
            (outcomes, net.stats().snapshot_full())
        };
        let (first, stats) = run();
        let (again, _) = run();
        assert_eq!(first, again, "fault decisions must be reproducible");
        let lost = first.iter().filter(|&&r| r == u16::MAX).count();
        let corrupted = first.iter().filter(|&&r| r == 1).count();
        assert!((60..=140).contains(&lost), "~25% loss, got {lost}/400");
        assert!(
            (15..=70).contains(&corrupted),
            "~10% FORMERR, got {corrupted}/400"
        );
        assert_eq!(stats.faults as usize, lost + corrupted);
        assert_eq!(stats.failed as usize, lost);
    }

    #[test]
    fn noop_plan_changes_nothing() {
        let dst: IpAddr = "93.184.216.34".parse().unwrap();
        let mut b = NetworkBuilder::new();
        b.register(dst, Arc::new(Echo));
        let net = b.build(SimClock::new());
        net.set_fault_plan(FaultPlan::intensity(5, 0.0));
        assert!(net.faults.get().is_none(), "no-op plans are dropped");
        assert!(net.query(dst, client(), &q(1)).is_ok());
    }

    #[test]
    fn config_builder_order() {
        let mut b = NetworkBuilder::new();
        b.register("1.2.3.4".parse().unwrap(), Arc::new(Echo));
        let net = b
            .config(NetworkConfig {
                rtt_ms: 7,
                ..Default::default()
            })
            .build(SimClock::new());
        let t0 = net.clock().now_millis();
        net.query("1.2.3.4".parse().unwrap(), client(), &q(9))
            .unwrap();
        assert_eq!(net.clock().now_millis() - t0, 7);
    }
}
