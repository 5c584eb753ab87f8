//! A gate around the catalog executor for the socket tests.  A served
//! batch waits at `execute` until the test lets it through, so a test on
//! one worker holds jobs back by keeping that worker busy: under the
//! queue's self-clocking rule, work waits only while every worker is.

use bulkd::{BatchExecutor, ExecPath, JobKey};
use cli::registry::ScheduleCaches;
use cli::serve::CatalogExecutor;
use obs::Json;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Where the gate stands.
#[derive(Debug, Default)]
struct State {
    /// Instances of the batch waiting at the gate, if one is.
    held: Option<usize>,
    /// Let-throughs granted and not yet taken by a held batch.
    permits: usize,
    /// Every batch passes (the test is done holding work).
    open: bool,
}

/// The gate itself, shared by the executor and the test.
#[derive(Debug, Default)]
pub struct Gate {
    state: Mutex<State>,
    cv: Condvar,
}

impl Gate {
    pub fn new() -> Arc<Gate> {
        Arc::new(Gate::default())
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("gate poisoned")
    }

    /// The executor's side: wait at the gate with a batch of `instances`
    /// until the test lets it through.
    fn pass(&self, instances: usize) {
        let mut st = self.lock();
        st.held = Some(instances);
        self.cv.notify_all();
        while !st.open && st.permits == 0 {
            st = self.cv.wait(st).expect("gate poisoned");
        }
        st.permits = st.permits.saturating_sub(1);
        st.held = None;
        self.cv.notify_all();
    }

    /// The instances of the batch waiting at the gate, once one is, or
    /// `None` if none arrives within `timeout`.
    pub fn held(&self, timeout: Duration) -> Option<usize> {
        let st = self.lock();
        let (st, _) =
            self.cv.wait_timeout_while(st, timeout, |st| st.held.is_none()).expect("gate poisoned");
        st.held
    }

    /// Let the held batch through, returning once it has passed.
    pub fn release(&self) {
        let mut st = self.lock();
        st.permits += 1;
        self.cv.notify_all();
        while st.permits > 0 && !st.open {
            st = self.cv.wait(st).expect("gate poisoned");
        }
    }

    /// Let every batch through from now on.
    pub fn open(&self) {
        self.lock().open = true;
        self.cv.notify_all();
    }
}

/// Opens its gate when dropped, so a failing test never leaves a worker
/// parked at it.
pub struct OpenOnDrop<'a>(pub &'a Gate);

impl Drop for OpenOnDrop<'_> {
    fn drop(&mut self) {
        self.0.open();
    }
}

/// The catalog executor behind a [`Gate`].
pub struct Gated {
    inner: CatalogExecutor,
    gate: Arc<Gate>,
}

impl Gated {
    pub fn new(gate: &Arc<Gate>) -> Gated {
        Gated { inner: CatalogExecutor::new(1), gate: Arc::clone(gate) }
    }

    pub fn caches(&self) -> Arc<ScheduleCaches> {
        Arc::clone(self.inner.caches())
    }
}

impl BatchExecutor for Gated {
    fn validate(&self, key: &JobKey) -> Result<usize, String> {
        self.inner.validate(key)
    }

    fn execute(
        &self,
        key: &JobKey,
        inputs: &[&[u64]],
    ) -> Result<(Vec<Vec<u64>>, ExecPath), String> {
        self.gate.pass(inputs.len());
        self.inner.execute(key, inputs)
    }

    fn cache_stats(&self) -> (u64, u64) {
        self.inner.cache_stats()
    }
}

/// Drive the gate of the one-worker node at `addr` for a herd of
/// closed-loop clients that submit `per_submit` instances at a time under
/// `keys`: let each batch through only once every client that has not
/// finished (`unfinished`, which each client decrements after its last
/// reply) has a submit in the server, waiting under one of `keys` or
/// riding the held batch.  Two consecutive batches then hold every
/// client.  Returns once every client has finished, with the gate open.
pub fn release_herd(
    gate: &Gate,
    addr: &str,
    keys: &[String],
    per_submit: usize,
    unfinished: &AtomicUsize,
) {
    let _open = OpenOnDrop(gate);
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut stats = bulkd::Client::connect(addr).expect("connect for stats");
    let waiting_jobs = |snap: &Json| -> usize {
        keys.iter()
            .filter_map(|k| snap.path(&format!("per_key.{k}.waiting_jobs")).and_then(Json::as_i64))
            .sum::<i64>() as usize
    };
    while unfinished.load(Ordering::SeqCst) > 0 {
        assert!(Instant::now() < deadline, "the herd never finished");
        let Some(held) = gate.held(Duration::from_millis(10)) else { continue };
        loop {
            let snap = stats.stats().expect("stats");
            if waiting_jobs(&snap) + held / per_submit >= unfinished.load(Ordering::SeqCst) {
                break;
            }
            assert!(Instant::now() < deadline, "the herd never gathered: {}", snap.to_pretty());
            std::thread::sleep(Duration::from_millis(1));
        }
        gate.release();
    }
}
