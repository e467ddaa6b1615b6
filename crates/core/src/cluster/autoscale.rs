//! Instance activation: the autoscaler that grows and shrinks each phase,
//! and the GPU-seconds the active instances hold.

use super::Cluster;
use crate::AutoscaleConfig;
use windserve_sim::{SimDuration, SimTime};
use windserve_trace::TraceEvent;

/// Consecutive cool autoscaler ticks required before a scale-down — the
/// hysteresis that stops activate/deactivate thrash under bursty load.
const DRAIN_TICKS: u32 = 12;

/// How often the scaler re-evaluates (the reproduction's default). The
/// event loop re-arms the tick on this cadence.
pub(super) const CHECK_INTERVAL: SimDuration = SimDuration::from_millis(250);

/// Activation warmup: weights load and engine start (the reproduction's
/// default).
const WARMUP: SimDuration = SimDuration::from_secs(3);

/// Scale decode up when every active replica's free-KV fraction drops
/// below this value (the reproduction's default).
const DECODE_UP_KV_FRACTION: f64 = 0.25;

/// Which instances hold their GPUs, and the GPU-time that costs.
#[derive(Debug)]
pub(super) struct Activation {
    /// Per-instance activation: `Some(ready_at)` = active (warming until
    /// `ready_at`); `None` = deactivated (GPUs released). Without
    /// autoscaling every instance is active from t = 0.
    active: Vec<Option<SimTime>>,
    /// GPUs each instance holds while active.
    gpus: Vec<usize>,
    /// Cached GPU count across active instances; recomputed on activation
    /// changes so per-event accounting is O(1).
    active_gpus: usize,
    pub(super) gpu_seconds: f64,
    last_account: SimTime,
    /// Consecutive cool autoscaler ticks per phase (hysteresis against
    /// activate/deactivate thrash).
    cool_ticks_prefill: u32,
    cool_ticks_decode: u32,
    /// Activations and deactivations the autoscaler made.
    pub(super) events: u64,
}

impl Activation {
    /// Every instance active from t = 0; `gpus` is each one's GPU count.
    pub(super) fn new(gpus: Vec<usize>) -> Self {
        Activation {
            active: vec![Some(SimTime::ZERO); gpus.len()],
            active_gpus: gpus.iter().sum(),
            gpus,
            gpu_seconds: 0.0,
            last_account: SimTime::ZERO,
            cool_ticks_prefill: 0,
            cool_ticks_decode: 0,
            events: 0,
        }
    }

    /// True if instance `idx` holds its GPUs (possibly still warming).
    pub(super) fn is_active(&self, idx: usize) -> bool {
        self.active.get(idx).is_none_or(|a| a.is_some())
    }

    /// True if instance `idx` is active and past its warmup at `now`.
    pub(super) fn is_ready(&self, idx: usize, now: SimTime) -> bool {
        self.active
            .get(idx)
            .is_none_or(|a| a.is_some_and(|ready| ready <= now))
    }

    /// Activates instance `idx` (ready at `ready`) or, with `None`,
    /// releases its GPUs.
    pub(super) fn set(&mut self, idx: usize, ready: Option<SimTime>) {
        self.active[idx] = ready;
        self.active_gpus = (0..self.gpus.len())
            .filter(|&i| self.active[i].is_some())
            .map(|i| self.gpus[i])
            .sum();
    }

    /// Integrates GPU-seconds held by active (incl. warming) instances up
    /// to `now`. This runs on every event; the active-GPU count it reads
    /// changes only on rare autoscale, crash and recovery transitions.
    pub(super) fn account(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_account).as_secs_f64();
        if dt > 0.0 {
            self.gpu_seconds += dt * self.active_gpus as f64;
        }
        self.last_account = now;
    }
}

impl Cluster {
    /// Releases every replica past each phase's autoscale minimum before
    /// the run starts.
    pub(super) fn start_at_minimum(&mut self, auto: &AutoscaleConfig) {
        let standby = self
            .prefill_idxs
            .iter()
            .skip(auto.min_prefill)
            .chain(self.decode_idxs.iter().skip(auto.min_decode));
        for &idx in standby {
            self.activation.set(idx, None);
        }
    }

    /// One autoscaler evaluation: activate a replica when every active one
    /// of a phase is overloaded; drain and deactivate an idle one when load
    /// recedes. At most one action per phase per tick. Crashed replicas
    /// are invisible to the scaler: lost capacity flows through the same
    /// policy as organic load shifts (graceful degradation).
    pub(super) fn autoscale_tick(&mut self, now: SimTime) {
        let Some(auto) = self.cfg.autoscale else {
            return;
        };
        let thrd = self.coordinator.dispatch_threshold.as_secs_f64();

        // --- prefill scaling ---
        let active_p = self.active_of(&self.prefill_idxs);
        let pred = |cluster: &Self, i: usize| {
            cluster
                .coordinator
                .predict_ttft(&cluster.profiler, &cluster.instances[i], 1, now)
                .as_secs_f64()
        };
        let all_hot = active_p
            .iter()
            .all(|&i| pred(self, i) > auto.up_ttft_fraction * thrd);
        let all_cool = active_p
            .iter()
            .all(|&i| pred(self, i) < auto.down_ttft_fraction * thrd);
        let cool = &mut self.activation.cool_ticks_prefill;
        *cool = if all_cool { *cool + 1 } else { 0 };
        if all_hot {
            // No prefill replica left to add: grow dispatch capacity
            // instead — another decode replica brings another guest stream
            // budget (and its idle tensor cores).
            let idle = self
                .idle_replica(&self.prefill_idxs)
                .or_else(|| self.idle_replica(&self.decode_idxs));
            if let Some(idle) = idle {
                self.scale(idle, Some(now + WARMUP), now);
                self.activation.cool_ticks_prefill = 0;
            }
        } else if active_p.len() > auto.min_prefill
            && self.activation.cool_ticks_prefill >= DRAIN_TICKS
        {
            let dwelled: Vec<usize> = active_p
                .iter()
                .rev()
                .copied()
                .filter(|&i| self.past_dwell(i, now))
                .collect();
            if let Some(&victim) = dwelled.iter().find(|&&i| {
                self.instances[i].is_drained() || {
                    self.instances[i].clear_backups();
                    self.instances[i].is_drained()
                }
            }) {
                self.scale(victim, None, now);
                self.activation.cool_ticks_prefill = 0;
            }
        }

        // --- decode scaling ---
        let active_d = self.active_of(&self.decode_idxs);
        let all_tight = active_d.iter().all(|&i| {
            let inst = &self.instances[i];
            inst.kv_free_fraction() < DECODE_UP_KV_FRACTION
                || inst.waiting_decode_len() > 0
                || inst.swapped_len() > 0
        });
        let cool = &mut self.activation.cool_ticks_decode;
        *cool = if all_tight { 0 } else { *cool + 1 };
        if all_tight {
            if let Some(idle) = self.idle_replica(&self.decode_idxs) {
                self.scale(idle, Some(now + WARMUP), now);
            }
        } else if active_d.len() > auto.min_decode
            && self.activation.cool_ticks_decode >= DRAIN_TICKS
        {
            if let Some(&victim) = active_d
                .iter()
                .rev()
                .filter(|&&i| self.past_dwell(i, now))
                .find(|&&i| self.instances[i].is_drained())
            {
                self.scale(victim, None, now);
                self.activation.cool_ticks_decode = 0;
            }
        }
    }

    /// One autoscale event: activates `inst` (ready at `ready`) or, with
    /// `None`, deactivates it.
    fn scale(&mut self, inst: usize, ready: Option<SimTime>, now: SimTime) {
        self.activation.set(inst, ready);
        self.activation.events += 1;
        self.tracer.emit(now, || TraceEvent::Autoscale {
            inst: inst as u32,
            activated: ready.is_some(),
        });
    }

    /// The active members of `idxs`, in order.
    fn active_of(&self, idxs: &[usize]) -> Vec<usize> {
        idxs.iter()
            .copied()
            .filter(|&i| self.activation.active[i].is_some())
            .collect()
    }

    /// The first member of `idxs` that is deactivated and not crashed.
    fn idle_replica(&self, idxs: &[usize]) -> Option<usize> {
        idxs.iter()
            .copied()
            .find(|&i| self.activation.active[i].is_none() && !self.crashed[i])
    }

    /// True once a replica has been ready long enough to have received
    /// work — freshly activated replicas are immune to scale-down, or the
    /// scaler would kill them the moment their warmup ends.
    fn past_dwell(&self, idx: usize, now: SimTime) -> bool {
        match self.activation.active[idx] {
            Some(ready) => now >= ready + CHECK_INTERVAL * u64::from(DRAIN_TICKS),
            None => false,
        }
    }
}
