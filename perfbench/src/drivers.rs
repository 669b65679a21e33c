//! Client drivers: the micro-benchmark client and the Andrew script
//! client (closed loop), and the open-loop generator of the
//! `kv-failover` workload. Each logs every operation it starts so the
//! harness can count attempts, failures and simulated latency over the
//! measured window.

use bft_core::client::{ClientApi, ClientDriver};
use bft_core::service::CounterService;
use bft_core::wire::Wire;
use bft_fs::client::NfsClientConfig;
use bft_fs::ops::{NfsError, NfsResult};
use bft_workloads::micro::MicroDriver;
use bft_workloads::script::{Drive, Script, ScriptRunner};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// One operation as a client saw it, in simulated nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct OpLog {
    /// When the operation started: submitted (closed loop) or fell due
    /// (open loop).
    pub start: u64,
    /// When it completed, if it did.
    pub done: Option<u64>,
    /// The result failed the workload's check.
    pub wrong: bool,
}

/// What the harness needs from every driver.
pub trait Logged: ClientDriver {
    /// Every operation started so far, in start order.
    fn ops(&self) -> &[OpLog];
    /// Stops starting new operations (the one in flight may finish).
    fn stop(&mut self);
    /// Summed generator lateness, in nanoseconds (open loop only).
    fn gen_lag_ns(&self) -> u64 {
        0
    }
    /// True when the driver has nothing queued or in flight.
    fn idle(&self) -> bool;
}

/// The log of a closed-loop client: at most one operation in flight.
#[derive(Default)]
struct Book {
    current: Option<usize>,
    ops: Vec<OpLog>,
}

impl Book {
    /// Logs a submission if the client just became busy.
    fn note_submit(&mut self, api: &ClientApi<'_, '_>) {
        if api.busy() && self.current.is_none() {
            self.current = Some(self.ops.len());
            self.ops.push(OpLog {
                start: api.now().nanos(),
                done: None,
                wrong: false,
            });
        }
    }

    /// Logs the completion of the operation in flight.
    fn complete(&mut self, latency_ns: u64, ok: bool) {
        if let Some(i) = self.current.take() {
            let op = &mut self.ops[i];
            op.done = Some(op.start + latency_ns);
            op.wrong = !ok;
        }
    }
}

/// The library's micro-benchmark driver, logging each operation it
/// submits and checking that each result is the zero-filled result of
/// the requested size.
pub struct MicroClient {
    inner: MicroDriver,
    stopped: bool,
    book: Book,
}

impl MicroClient {
    /// Wraps `inner`.
    pub fn new(inner: MicroDriver) -> MicroClient {
        MicroClient {
            inner,
            stopped: false,
            book: Book::default(),
        }
    }
}

impl ClientDriver for MicroClient {
    fn on_start(&mut self, api: &mut ClientApi<'_, '_>) {
        self.inner.on_start(api);
        self.book.note_submit(api);
    }

    fn on_complete(&mut self, api: &mut ClientApi<'_, '_>, result: &[u8], latency_ns: u64) {
        let ok = result.len() == self.inner.result_bytes && result.iter().all(|&b| b == 0);
        self.book.complete(latency_ns, ok);
        if !self.stopped {
            self.inner.on_complete(api, result, latency_ns);
            self.book.note_submit(api);
        }
    }

    fn on_timer(&mut self, api: &mut ClientApi<'_, '_>, token: u64) {
        if !self.stopped {
            self.inner.on_timer(api, token);
            self.book.note_submit(api);
        }
    }
}

impl Logged for MicroClient {
    fn ops(&self) -> &[OpLog] {
        &self.book.ops
    }

    fn stop(&mut self) {
        self.stopped = true;
    }

    fn idle(&self) -> bool {
        self.book.current.is_none()
    }
}

/// Runs a file-system script through the NFS client model, one RPC at
/// a time. Client compute between RPCs waits on a timer rather than
/// being charged to the handler that then submits the RPC, so each RPC's
/// latency is the RPC alone.
pub struct ScriptClient {
    runner: ScriptRunner,
    book: Book,
    /// Simulated time the script finished, if it has.
    pub finished_at_ns: Option<u64>,
}

impl ScriptClient {
    /// A client that will run `script`.
    pub fn new(script: Script, client_cfg: NfsClientConfig) -> ScriptClient {
        ScriptClient {
            runner: ScriptRunner::new(script, client_cfg),
            book: Book::default(),
            finished_at_ns: None,
        }
    }

    /// The script runner (progress and failed actions).
    pub fn runner(&self) -> &ScriptRunner {
        &self.runner
    }

    fn pump(&mut self, api: &mut ClientApi<'_, '_>, response: Option<NfsResult>) {
        match self.runner.advance(response.as_ref()) {
            Drive::Rpc(op) => {
                let read_only = op.is_read_only();
                api.submit(op.to_bytes(), read_only);
                self.book.note_submit(api);
            }
            Drive::Compute(ns) => api.set_timer(ns.max(1), 0),
            Drive::Done => self.finished_at_ns = Some(api.now().nanos()),
        }
    }
}

impl ClientDriver for ScriptClient {
    fn on_start(&mut self, api: &mut ClientApi<'_, '_>) {
        self.pump(api, None);
    }

    fn on_complete(&mut self, api: &mut ClientApi<'_, '_>, result: &[u8], latency_ns: u64) {
        // The script runner checks every response; a failed action
        // shows in its `failed` count.
        self.book.complete(latency_ns, true);
        let response = NfsResult::from_bytes(result).unwrap_or(NfsResult::Err(NfsError::Inval));
        self.pump(api, Some(response));
    }

    fn on_timer(&mut self, api: &mut ClientApi<'_, '_>, _token: u64) {
        self.pump(api, None);
    }
}

impl Logged for ScriptClient {
    fn ops(&self) -> &[OpLog] {
        &self.book.ops
    }

    fn stop(&mut self) {}

    fn idle(&self) -> bool {
        self.finished_at_ns.is_some()
    }
}

/// Counter adds issued and acknowledged across all open-loop clients,
/// shared so each read can be checked against the whole history.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Sum of the amounts of every add submitted.
    pub issued_adds: u64,
    /// Sum of the amounts of every add acknowledged.
    pub acked_adds: u64,
}

/// An open-loop client of the counter service: operations fall due on a
/// seeded Poisson schedule whether or not earlier ones have completed.
/// Due operations wait in a per-client queue (the library's client is
/// closed-loop, one operation in flight), and at most one timer is
/// pending at a time: the one for the next arrival.
pub struct OpenLoop {
    rng: u64,
    mean_gap_ns: f64,
    write_permille: u64,
    next_due: u64,
    stop_at: u64,
    timer_armed: bool,
    queue: VecDeque<usize>,
    inflight: Option<usize>,
    ops: Vec<OpLog>,
    /// Per op: the add amount (0 for a read).
    adds: Vec<u8>,
    /// Per op: acknowledged adds when it was submitted (a read's floor).
    floors: Vec<u64>,
    gen_lag_ns: u64,
    ledger: Rc<RefCell<Ledger>>,
}

impl OpenLoop {
    /// A client offering `rate` ops/s from `start_at` until `stop_at`
    /// (simulated ns), `write_permille` of them adds, drawn from `seed`.
    pub fn new(
        seed: u64,
        rate: f64,
        write_permille: u64,
        start_at: u64,
        stop_at: u64,
        ledger: Rc<RefCell<Ledger>>,
    ) -> OpenLoop {
        let mut client = OpenLoop {
            rng: seed,
            mean_gap_ns: 1e9 / rate,
            write_permille,
            next_due: start_at,
            stop_at,
            timer_armed: false,
            queue: VecDeque::new(),
            inflight: None,
            ops: Vec::new(),
            adds: Vec::new(),
            floors: Vec::new(),
            gen_lag_ns: 0,
            ledger,
        };
        client.next_due += client.gap();
        client
    }

    /// The adds ledger this client shares with the others.
    pub fn ledger(&self) -> &Rc<RefCell<Ledger>> {
        &self.ledger
    }

    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// An exponential inter-arrival gap, at least 1 ns.
    fn gap(&mut self) -> u64 {
        let u = ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        ((-u.ln() * self.mean_gap_ns) as u64).max(1)
    }

    /// Generates every arrival now due, submits the queue head if idle,
    /// and keeps exactly one timer armed for the next arrival.
    fn pump(&mut self, api: &mut ClientApi<'_, '_>) {
        let now = api.now().nanos();
        while self.next_due <= now && self.next_due < self.stop_at {
            let add = if self.next_u64() % 1000 < self.write_permille {
                1 + (self.next_u64() % 9) as u8
            } else {
                0
            };
            self.gen_lag_ns += now - self.next_due;
            self.queue.push_back(self.ops.len());
            self.ops.push(OpLog {
                start: self.next_due,
                done: None,
                wrong: false,
            });
            self.adds.push(add);
            self.floors.push(0);
            self.next_due += self.gap();
        }
        if self.inflight.is_none() {
            if let Some(i) = self.queue.pop_front() {
                let mut ledger = self.ledger.borrow_mut();
                self.floors[i] = ledger.acked_adds;
                if self.adds[i] > 0 {
                    ledger.issued_adds += u64::from(self.adds[i]);
                    api.submit(CounterService::add_op(self.adds[i]), false);
                } else {
                    api.submit(CounterService::get_op(), true);
                }
                self.inflight = Some(i);
            }
        }
        if !self.timer_armed && self.next_due < self.stop_at {
            api.set_timer(self.next_due - now, 0);
            self.timer_armed = true;
        }
    }
}

impl ClientDriver for OpenLoop {
    fn on_start(&mut self, api: &mut ClientApi<'_, '_>) {
        self.pump(api);
    }

    fn on_complete(&mut self, api: &mut ClientApi<'_, '_>, result: &[u8], _latency_ns: u64) {
        if let Some(i) = self.inflight.take() {
            let mut ledger = self.ledger.borrow_mut();
            let value = <[u8; 8]>::try_from(result).map(u64::from_le_bytes);
            let add = u64::from(self.adds[i]);
            // A read sees every add acknowledged before it was submitted
            // and none that was not yet submitted when it completed; an
            // add's result includes its own amount.
            let ok = match value {
                Ok(v) => v >= self.floors[i] + add && v <= ledger.issued_adds,
                Err(_) => false,
            };
            if ok {
                ledger.acked_adds += add;
            }
            self.ops[i].done = Some(api.now().nanos());
            self.ops[i].wrong = !ok;
        }
        self.pump(api);
    }

    fn on_timer(&mut self, api: &mut ClientApi<'_, '_>, _token: u64) {
        self.timer_armed = false;
        self.pump(api);
    }
}

impl Logged for OpenLoop {
    fn ops(&self) -> &[OpLog] {
        &self.ops
    }

    fn stop(&mut self) {
        self.stop_at = 0;
        self.queue.clear();
    }

    fn gen_lag_ns(&self) -> u64 {
        self.gen_lag_ns
    }

    fn idle(&self) -> bool {
        self.inflight.is_none() && self.queue.is_empty()
    }
}
