//! Morsel-driven edge reactor: a small, dependency-free event loop.
//!
//! Producer tasks enqueue decoded morsels onto bounded per-edge channels
//! ([`EdgeChannel`]) and a shared worker pool ([`spawn`]) runs the
//! chunk-granular work (today: stream-decoding an encoded edge ahead of
//! the consumer), so encoding, decoding, and consumer compute for
//! different chunks of one edge overlap on the wall clock.
//!
//! Like the workspace-local `parking_lot`/`criterion` shims, this module
//! is built purely on `std`: a mutex+condvar ring buffer for the
//! channels and detached worker threads fed from one injector queue.
//!
//! # Determinism
//!
//! The reactor moves *wall-clock* work between threads; it never touches
//! the simulated clock. Morsels are delivered strictly in edge order
//! (single producer, single consumer, FIFO ring), so every consumer
//! observes the exact byte sequence the inline decoder would have
//! produced. All reactor-specific telemetry lives under the quarantined
//! `sched.reactor_*` prefix.
//!
//! # Crash safety
//!
//! A worker that panics mid-edge must not leave the consumer blocked on
//! an empty channel (nor a producer blocked on a full one). Both sides
//! hold a [`PoisonGuard`]; an unwinding panic poisons the channel, which
//! wakes every waiter with [`Poisoned`] instead of deadlocking. The pool
//! itself catches the unwind so its worker thread survives for the next
//! job.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Bounded depth of one edge channel, in morsels. Small on purpose: the
/// point is pipelining, not buffering — a slow consumer exerts
/// backpressure on the decoder after this many chunks.
pub const EDGE_CHANNEL_CAPACITY: usize = 4;

/// The host's available parallelism (1 when unknown), asked once per
/// process: the standard library re-reads the scheduler affinity and the
/// cgroup quota files on every call, and every `XdbOptions::default()` asks.
pub(crate) fn host_parallelism() -> usize {
    static PARALLELISM: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *PARALLELISM.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// The default reactor worker count: the machine parallelism *minus one*
/// (the consumer thread is busy too), capped at 8 — on a single-core host
/// the reactor is off (everything runs inline on the owning task's
/// thread), because thread-level overlap cannot pay for its own handoffs
/// there. `XdbOptions::reactor_threads` / `Cluster::set_reactor_threads`
/// choose another count.
pub fn default_threads() -> usize {
    host_parallelism().saturating_sub(1).min(8)
}

/// Error returned by channel operations after a panic poisoned the edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Poisoned;

impl std::fmt::Display for Poisoned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("edge channel poisoned by a panicking worker")
    }
}

struct ChanState<T> {
    queue: VecDeque<T>,
    closed: bool,
    poisoned: bool,
}

/// A bounded single-producer/single-consumer morsel channel with
/// poisoning. `send` blocks while the ring is full (backpressure);
/// `recv` blocks while it is empty. Poisoning (from either side) wakes
/// all waiters immediately.
pub struct EdgeChannel<T> {
    state: Mutex<ChanState<T>>,
    space: Condvar,
    ready: Condvar,
    capacity: usize,
}

impl<T> EdgeChannel<T> {
    pub fn new(capacity: usize) -> EdgeChannel<T> {
        EdgeChannel {
            state: Mutex::new(ChanState {
                queue: VecDeque::with_capacity(capacity),
                closed: false,
                poisoned: false,
            }),
            space: Condvar::new(),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, ChanState<T>> {
        // The std mutex only poisons if a holder panicked *inside* the
        // critical section; our explicit `poisoned` flag is the protocol.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueue one morsel, blocking while the channel is full. Fails once
    /// the channel is poisoned or closed (the receiver bailed out).
    pub fn send(&self, value: T) -> Result<(), Poisoned> {
        let mut st = self.lock();
        loop {
            if st.poisoned || st.closed {
                return Err(Poisoned);
            }
            if st.queue.len() < self.capacity {
                st.queue.push_back(value);
                self.ready.notify_one();
                return Ok(());
            }
            st = self.space.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Dequeue the next morsel in order. `Ok(None)` means the producer
    /// closed the channel and everything sent has been drained.
    pub fn recv(&self) -> Result<Option<T>, Poisoned> {
        let mut st = self.lock();
        loop {
            if let Some(v) = st.queue.pop_front() {
                self.space.notify_one();
                return Ok(Some(v));
            }
            if st.poisoned {
                return Err(Poisoned);
            }
            if st.closed {
                return Ok(None);
            }
            st = self.ready.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Producer-side end-of-edge marker: receivers drain what was sent,
    /// then observe `Ok(None)`.
    pub fn close(&self) {
        let mut st = self.lock();
        st.closed = true;
        self.ready.notify_all();
        self.space.notify_all();
    }

    /// Mark the edge as crashed: every current and future waiter (both
    /// sides) immediately gets [`Poisoned`] instead of blocking forever.
    pub(crate) fn poison(&self) {
        let mut st = self.lock();
        st.poisoned = true;
        st.queue.clear();
        self.ready.notify_all();
        self.space.notify_all();
    }

    /// Whether the channel was poisoned.
    pub fn is_poisoned(&self) -> bool {
        self.lock().poisoned
    }
}

/// Drop guard that poisons an [`EdgeChannel`] unless defused: arm it at
/// the top of a worker job (or a consumer drain loop); any unwinding
/// panic then poisons the window cleanly instead of deadlocking the
/// peer on the bounded channel.
pub struct PoisonGuard<T> {
    chan: Arc<EdgeChannel<T>>,
    armed: bool,
}

impl<T> PoisonGuard<T> {
    pub fn new(chan: Arc<EdgeChannel<T>>) -> PoisonGuard<T> {
        PoisonGuard { chan, armed: true }
    }

    /// The protected section completed normally; do not poison on drop.
    pub fn defuse(mut self) {
        self.armed = false;
    }
}

impl<T> Drop for PoisonGuard<T> {
    fn drop(&mut self) {
        if self.armed {
            self.chan.poison();
        }
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    /// Worker threads ever spawned.
    workers: usize,
    /// Workers currently parked on the injector queue.
    idle: usize,
}

/// The process-global worker pool behind [`spawn`]. Workers are spawned
/// lazily up to the caller's thread budget and then live for the whole
/// process, parked on one injector queue.
struct Pool {
    state: Mutex<PoolState>,
    ready: Condvar,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            queue: VecDeque::new(),
            workers: 0,
            idle: 0,
        }),
        ready: Condvar::new(),
    })
}

fn worker_loop() {
    let pool = pool();
    let mut st = pool.state.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        if let Some(job) = st.queue.pop_front() {
            drop(st);
            // A panicking job must not kill the pool thread: edge
            // cleanup is the PoisonGuard's job, survival is ours.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            st = pool.state.lock().unwrap_or_else(|e| e.into_inner());
        } else {
            st.idle += 1;
            st = pool.ready.wait(st).unwrap_or_else(|e| e.into_inner());
            st.idle -= 1;
        }
    }
}

/// Submit a job to the reactor pool, growing it up to `max_workers`
/// threads. Jobs are picked up in submission order; a job that panics
/// poisons whatever [`PoisonGuard`] it armed and the worker survives.
pub fn spawn(max_workers: usize, job: impl FnOnce() + Send + 'static) {
    let pool = pool();
    let mut st = pool.state.lock().unwrap_or_else(|e| e.into_inner());
    st.queue.push_back(Box::new(job));
    if st.idle == 0 && st.workers < max_workers.max(1) {
        st.workers += 1;
        std::thread::Builder::new()
            .name("xdb-reactor".into())
            .spawn(worker_loop)
            .expect("spawn reactor worker");
    }
    drop(st);
    pool.ready.notify_one();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn channel_delivers_in_order_with_backpressure() {
        let chan = Arc::new(EdgeChannel::<usize>::new(2));
        let tx = Arc::clone(&chan);
        let producer = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            tx.close();
        });
        let mut got = Vec::new();
        while let Some(v) = chan.recv().unwrap() {
            got.push(v);
        }
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn recv_after_close_drains_then_ends() {
        let chan = EdgeChannel::<u8>::new(4);
        chan.send(1).unwrap();
        chan.send(2).unwrap();
        chan.close();
        assert_eq!(chan.recv(), Ok(Some(1)));
        assert_eq!(chan.recv(), Ok(Some(2)));
        assert_eq!(chan.recv(), Ok(None));
    }

    #[test]
    fn send_to_closed_channel_fails() {
        let chan = EdgeChannel::<u8>::new(1);
        chan.close();
        assert_eq!(chan.send(9), Err(Poisoned));
    }

    /// The crash test of the reactor contract: a worker that panics
    /// mid-edge poisons the window; the consumer wakes with an error
    /// instead of deadlocking on the bounded channel.
    #[test]
    fn panicking_worker_poisons_instead_of_deadlocking() {
        let chan = Arc::new(EdgeChannel::<usize>::new(2));
        let tx = Arc::clone(&chan);
        spawn(2, move || {
            let _guard = PoisonGuard::new(tx.clone());
            tx.send(0).unwrap();
            panic!("simulated decode fault");
        });
        // First morsel arrives, then the poison — never a hang.
        let mut poisoned = false;
        for _ in 0..3 {
            match chan.recv() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(Poisoned) => {
                    poisoned = true;
                    break;
                }
            }
        }
        assert!(poisoned, "panic must surface as Poisoned");
        assert!(chan.is_poisoned());
    }

    /// A consumer that bails early must unblock a producer stuck on a
    /// full channel (receiver-side guard poisons on drop).
    #[test]
    fn receiver_guard_unblocks_blocked_producer() {
        let chan = Arc::new(EdgeChannel::<usize>::new(1));
        let tx = Arc::clone(&chan);
        let producer = std::thread::spawn(move || {
            let mut sent = 0;
            while tx.send(sent).is_ok() {
                sent += 1;
            }
            sent
        });
        {
            let guard = PoisonGuard::new(Arc::clone(&chan));
            assert!(chan.recv().unwrap().is_some());
            drop(guard); // consumer "panics" here
        }
        let sent = producer.join().unwrap();
        assert!(sent >= 1);
    }

    #[test]
    fn pool_runs_jobs_and_survives_panics() {
        let flag = Arc::new(AtomicBool::new(false));
        spawn(2, || panic!("first job dies"));
        let f = Arc::clone(&flag);
        spawn(2, move || f.store(true, Ordering::SeqCst));
        for _ in 0..200 {
            if flag.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        panic!("pool did not run the second job after a panicking first");
    }
}
