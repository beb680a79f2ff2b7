//! The traced run's instruments, all living in the benchmark: an
//! in-memory span recorder, a timing `TransportFactory` that wraps the
//! in-process `LocalFactory`, and a timing `Algorithm` wrapper whose
//! node programs time their own calls.
//!
//! Spans are opened by the benchmark around calls into a layer's public
//! functions. Calls too frequent to keep one record each (transport
//! exchanges, node-program calls) are *leaves*: their time and call
//! count accumulate on the innermost open span. A span's self time is
//! its duration minus its child spans and its leaves, so per pass the
//! self times, the leaves and the root's own remainder (`unattributed`)
//! add up to the pass's wall time exactly.
//!
//! The recorder is thread-local: each traced thread records its own
//! tree, and [`take`] hands it over when the thread is done.

use bcc_model::transport::{LocalFactory, TransportFactory};
use bcc_model::transport::{LocalTransport, RoundView, Routes, Transport, TransportError};
use bcc_model::{Algorithm, Decision, Inbox, InitialKnowledge, Message, NodeProgram};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Leaf: one node-program `spawn`.
pub const SPAWN: &str = "algorithms.spawn";
/// Leaf: one node-program `broadcast`.
pub const BROADCAST: &str = "algorithms.broadcast";
/// Leaf: one node-program `receive`.
pub const RECEIVE: &str = "algorithms.receive";
/// Leaf: one transport `exchange` (one round of one run or lane).
pub const EXCHANGE: &str = "model.exchange";

/// Counter: transports opened (one per scalar run or batched lane).
pub const TRANSPORTS: &str = "count.transports";
/// Counter: Σ n over exchanges, i.e. node-rounds delivered.
pub const NODE_ROUNDS: &str = "count.node_rounds";
/// Counter: symbols in every outbox handed to the transport.
pub const BROADCAST_SYMBOLS: &str = "count.broadcast_symbols";
/// Counter: symbols in every inbox the transport delivered.
pub const DELIVERED_SYMBOLS: &str = "count.delivered_symbols";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (`model.run`, `engine.batch`, …).
    pub name: String,
    /// Index of the enclosing span, `None` for a pass root.
    pub parent: Option<usize>,
    /// The workload pass this span belongs to.
    pub pass: u32,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Leaf time and calls accumulated while this was the innermost span.
    pub leaves: Vec<(&'static str, u64, u64)>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A thread's recorded spans plus counters.
#[derive(Debug, Default)]
pub struct Recording {
    /// Spans in opening order (a parent precedes its children).
    pub spans: Vec<Span>,
    /// Counters, summed over the whole recording.
    pub counters: BTreeMap<&'static str, u64>,
    /// Counters accumulated while some `engine.batch` span was open.
    pub batch_counters: BTreeMap<&'static str, u64>,
}

struct Recorder {
    epoch: Instant,
    enabled: bool,
    pass: u32,
    stack: Vec<usize>,
    in_batch: Vec<bool>,
    rec: Recording,
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        enabled: false,
        pass: 0,
        stack: Vec::new(),
        in_batch: Vec::new(),
        rec: Recording::default(),
    });
}

/// Starts recording on this thread (spans and leaves are dropped
/// silently while disabled, so untraced code paths cost one branch).
pub fn enable() {
    set_enabled(true);
}

/// Pauses (`false`) or resumes (`true`) recording on this thread,
/// keeping what was recorded so far. Pause only between pass roots.
pub fn set_enabled(on: bool) {
    RECORDER.with(|r| r.borrow_mut().enabled = on);
}

/// Sets the pass id stamped on spans opened from now on.
pub fn set_pass(pass: u32) {
    RECORDER.with(|r| r.borrow_mut().pass = pass);
}

/// Opens a span; close it with [`close`] (or use [`scope`]).
pub fn open(name: impl Into<String>) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return;
        }
        let name = name.into();
        let start_ns = r.now_ns();
        let parent = r.stack.last().copied();
        let batch = name == "engine.batch" || r.in_batch.last().copied().unwrap_or(false);
        let pass = r.pass;
        r.rec.spans.push(Span {
            name,
            parent,
            pass,
            start_ns,
            end_ns: start_ns,
            leaves: Vec::new(),
        });
        let idx = r.rec.spans.len() - 1;
        r.stack.push(idx);
        r.in_batch.push(batch);
    });
}

/// Closes the innermost open span.
pub fn close() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return;
        }
        let end = r.now_ns();
        if let Some(idx) = r.stack.pop() {
            r.in_batch.pop();
            r.rec.spans[idx].end_ns = end;
        }
    });
}

/// Closes the innermost open span under a name decided only now (a
/// store lookup is a hit or a miss once it returns).
pub fn close_named(name: &str) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if let Some(&idx) = r.stack.last() {
            r.rec.spans[idx].name = name.to_string();
        }
    });
    close();
}

/// Runs `f` inside a span named `name`.
pub fn scope<T>(name: impl Into<String>, f: impl FnOnce() -> T) -> T {
    open(name);
    let out = f();
    close();
    out
}

/// Adds a leaf timing to the innermost open span.
fn leaf(name: &'static str, ns: u64) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return;
        }
        if let Some(&idx) = r.stack.last() {
            let leaves = &mut r.rec.spans[idx].leaves;
            match leaves.iter_mut().find(|l| l.0 == name) {
                Some(l) => {
                    l.1 += ns;
                    l.2 += 1;
                }
                None => leaves.push((name, ns, 1)),
            }
        }
    });
}

/// Adds `by` to a counter.
pub fn count(name: &'static str, by: u64) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return;
        }
        *r.rec.counters.entry(name).or_insert(0) += by;
        if r.in_batch.last().copied().unwrap_or(false) {
            *r.rec.batch_counters.entry(name).or_insert(0) += by;
        }
    });
}

/// A counter's current value on this thread.
pub fn counter(name: &'static str) -> u64 {
    RECORDER.with(|r| r.borrow().rec.counters.get(name).copied().unwrap_or(0))
}

/// Times `f` as a leaf named `name`.
fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    leaf(
        name,
        u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
    );
    out
}

/// Ends recording on this thread and returns what it recorded. Any
/// span left open is closed now.
pub fn take() -> Recording {
    while RECORDER.with(|r| !r.borrow().stack.is_empty()) {
        close();
    }
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.enabled = false;
        std::mem::take(&mut r.rec)
    })
}

fn symbols(m: &Message) -> u64 {
    m.len() as u64
}

/// A transport that delegates to [`LocalTransport`] and records, per
/// exchange, the time spent, the node-rounds delivered and the symbols
/// going in and coming out.
#[derive(Debug, Default)]
pub struct TimingTransport {
    inner: LocalTransport,
}

impl Transport for TimingTransport {
    fn open(&mut self, routes: &Routes) -> Result<(), TransportError> {
        count(TRANSPORTS, 1);
        self.inner.open(routes)
    }

    fn exchange(&mut self, round: usize, outbox: &[Message]) -> Result<RoundView, TransportError> {
        let view = timed(EXCHANGE, || self.inner.exchange(round, outbox))?;
        count(NODE_ROUNDS, outbox.len() as u64);
        count(BROADCAST_SYMBOLS, outbox.iter().map(symbols).sum());
        let delivered: u64 = (0..view.num_nodes())
            .flat_map(|v| view.inbox(v).iter())
            .map(|(_, m)| symbols(m))
            .sum();
        count(DELIVERED_SYMBOLS, delivered);
        Ok(view)
    }

    fn barrier(&mut self) -> Result<(), TransportError> {
        self.inner.barrier()
    }

    fn teardown(&mut self) {
        self.inner.teardown();
    }
}

/// Factory for [`TimingTransport`]: the traced process installs it as
/// the default, so the scalar driver, the batched kernel and
/// `bcc_core` all deliver through it.
#[derive(Debug, Default, Clone, Copy)]
pub struct TimingFactory;

impl TransportFactory for TimingFactory {
    fn create(&self) -> Box<dyn Transport> {
        Box::new(TimingTransport::default())
    }

    fn label(&self) -> String {
        LocalFactory.label()
    }
}

/// A transport that delegates to [`LocalTransport`] and only adds
/// node-rounds to a shared counter: the set-up of `serve-warm` uses it
/// to learn each request's node-rounds from its direct run.
#[derive(Debug)]
pub struct CountingTransport {
    inner: LocalTransport,
    node_rounds: Arc<AtomicU64>,
}

impl Transport for CountingTransport {
    fn open(&mut self, routes: &Routes) -> Result<(), TransportError> {
        self.inner.open(routes)
    }

    fn exchange(&mut self, round: usize, outbox: &[Message]) -> Result<RoundView, TransportError> {
        self.node_rounds
            .fetch_add(outbox.len() as u64, Ordering::Relaxed);
        self.inner.exchange(round, outbox)
    }
}

/// Factory for [`CountingTransport`]s sharing one counter.
#[derive(Debug, Clone)]
pub struct CountingFactory {
    node_rounds: Arc<AtomicU64>,
}

impl CountingFactory {
    /// Counts into `node_rounds`.
    pub fn new(node_rounds: Arc<AtomicU64>) -> Self {
        CountingFactory { node_rounds }
    }
}

impl TransportFactory for CountingFactory {
    fn create(&self) -> Box<dyn Transport> {
        Box::new(CountingTransport {
            inner: LocalTransport::new(),
            node_rounds: Arc::clone(&self.node_rounds),
        })
    }

    fn label(&self) -> String {
        LocalFactory.label()
    }
}

/// An algorithm wrapper whose node programs time `spawn`, `broadcast`
/// and `receive` as leaves. Every other call is forwarded untimed.
pub struct Timed<'a> {
    inner: &'a dyn Algorithm,
}

impl<'a> Timed<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn Algorithm) -> Self {
        Timed { inner }
    }
}

impl Algorithm for Timed<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn spawn(&self, init: InitialKnowledge) -> Box<dyn NodeProgram> {
        let inner = timed(SPAWN, || self.inner.spawn(init));
        Box::new(TimedProgram { inner })
    }
}

struct TimedProgram {
    inner: Box<dyn NodeProgram>,
}

impl NodeProgram for TimedProgram {
    fn broadcast(&mut self, round: usize) -> Message {
        timed(BROADCAST, || self.inner.broadcast(round))
    }

    fn receive(&mut self, round: usize, inbox: &Inbox) {
        timed(RECEIVE, || self.inner.receive(round, inbox));
    }

    fn decide(&self) -> Decision {
        self.inner.decide()
    }

    fn component_label(&self) -> Option<u64> {
        self.inner.component_label()
    }

    fn spanning_edges(&self) -> Option<Vec<(u64, u64)>> {
        self.inner.spanning_edges()
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
}

/// Per-name totals over a recording: self time for spans (duration
/// minus children and leaves), total time for leaves, and the
/// `unattributed` row (the pass roots' own remainder).
#[derive(Debug, Default, Clone)]
pub struct SelfTimes {
    /// `(name, seconds, calls)` sorted by name; `unattributed` included.
    pub rows: Vec<(String, f64, u64)>,
    /// Σ root span durations, seconds — the traced wall time.
    pub wall_s: f64,
    /// `wall − Σ rows`, nanoseconds; zero by construction.
    pub residual_ns: i128,
}

/// Each span's self time in nanoseconds: its duration minus its child
/// spans and its leaves.
fn own_ns(rec: &Recording) -> Vec<u64> {
    let mut covered = vec![0u64; rec.spans.len()];
    for (i, s) in rec.spans.iter().enumerate() {
        covered[i] += s.leaves.iter().map(|l| l.1).sum::<u64>();
        if let Some(p) = s.parent {
            covered[p] += s.duration_ns();
        }
    }
    rec.spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Folds a recording into its self-time table.
pub fn self_times(rec: &Recording) -> SelfTimes {
    let mut rows: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let mut wall_ns = 0u64;
    for (s, own) in rec.spans.iter().zip(own_ns(rec)) {
        let name = if s.parent.is_none() {
            wall_ns += s.duration_ns();
            "unattributed".to_string()
        } else {
            s.name.clone()
        };
        let e = rows.entry(name).or_insert((0, 0));
        e.0 += own;
        e.1 += 1;
        for &(leaf, ns, calls) in &s.leaves {
            let e = rows.entry(leaf.to_string()).or_insert((0, 0));
            e.0 += ns;
            e.1 += calls;
        }
    }
    let sum: u64 = rows.values().map(|v| v.0).sum();
    SelfTimes {
        rows: rows
            .into_iter()
            .map(|(k, (ns, calls))| (k, ns as f64 * 1e-9, calls))
            .collect(),
        wall_s: wall_ns as f64 * 1e-9,
        residual_ns: i128::from(wall_ns) - i128::from(sum),
    }
}

/// Σ duration of spans named `name`, seconds.
pub fn total_s(rec: &Recording, name: &str) -> f64 {
    rec.spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .sum()
}

/// Σ self time of spans named `name` (duration minus child spans and
/// leaves), seconds.
pub fn self_s(rec: &Recording, name: &str) -> f64 {
    rec.spans
        .iter()
        .zip(own_ns(rec))
        .filter(|(s, _)| s.name == name)
        .map(|(_, own)| own as f64 * 1e-9)
        .sum()
}

/// Σ leaf time and calls named `leaf`; with `batch_only`, only leaves
/// recorded under an `engine.batch` span.
pub fn leaf_total(rec: &Recording, leaf: &str, batch_only: bool) -> (f64, u64) {
    let mut in_batch = vec![false; rec.spans.len()];
    let mut ns = 0u64;
    let mut calls = 0u64;
    for (i, s) in rec.spans.iter().enumerate() {
        in_batch[i] = s.name == "engine.batch" || s.parent.is_some_and(|p| in_batch[p]);
        if batch_only && !in_batch[i] {
            continue;
        }
        for l in s.leaves.iter().filter(|l| l.0 == leaf) {
            ns += l.1;
            calls += l.2;
        }
    }
    (ns as f64 * 1e-9, calls)
}

/// Appends `other`'s spans and counters to `into` (another thread's
/// recording of the same pass).
pub fn merge(into: &mut Recording, other: Recording) {
    let offset = into.spans.len();
    for mut s in other.spans {
        s.parent = s.parent.map(|p| p + offset);
        into.spans.push(s);
    }
    for (k, v) in other.counters {
        *into.counters.entry(k).or_insert(0) += v;
    }
    for (k, v) in other.batch_counters {
        *into.batch_counters.entry(k).or_insert(0) += v;
    }
}
