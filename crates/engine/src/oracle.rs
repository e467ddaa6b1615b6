//! The decode instance as it was before the step ledger: every step walks
//! every member, crediting its token and appending its KV one table at a
//! time. Kept as the test oracle for the ledger-backed [`Instance`].
//!
//! It covers what a decode instance does without guest prefills: decode
//! admission (swap-ins first), continuous batching over `pp` lanes, growth
//! checks with swap or recompute preemption, pauses, pressure preemption,
//! aborts and crashes. Each step is priced from its batch size and the
//! ΣL summed member by member, so the ledger's ΣL is checked too.
//!
//! [`Instance`]: crate::Instance

use crate::config::{InstanceConfig, PreemptionMode};
use crate::outcome::{CompletedSeq, PausedSeq, StepKind};
use crate::seq::{SeqPhase, SeqState};
use crate::stats::InstanceStats;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use windserve_gpu::KernelCost;
use windserve_kvcache::BlockManager;
use windserve_model::{BatchPlan, CostModel};
use windserve_sim::{SimDuration, SimTime};
use windserve_workload::RequestId;

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EagerStep {
    pub(crate) started: SimTime,
    pub(crate) ends_at: SimTime,
    pub(crate) kernel: KernelCost,
    pub(crate) members: Vec<RequestId>,
}

#[derive(Debug, Clone, Default)]
pub(crate) struct EagerLane {
    pub(crate) running: Vec<RequestId>,
    pub(crate) step: Option<EagerStep>,
}

/// What one completion did.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct EagerOutcome {
    pub(crate) decoded: Vec<RequestId>,
    pub(crate) completed: Vec<CompletedSeq>,
    pub(crate) paused: Vec<PausedSeq>,
}

pub(crate) struct Eager {
    cfg: InstanceConfig,
    pub(crate) cost: CostModel,
    pub(crate) kv: BlockManager,
    pub(crate) seqs: BTreeMap<u64, SeqState>,
    pub(crate) waiting_decode: VecDeque<RequestId>,
    pub(crate) swapped: VecDeque<RequestId>,
    pub(crate) lanes: Vec<EagerLane>,
    migrating: BTreeSet<u64>,
    pause_requests: BTreeSet<u64>,
    pending_delay: SimDuration,
    host_bandwidth: f64,
    pub(crate) stats: InstanceStats,
}

impl Eager {
    pub(crate) fn new(cfg: InstanceConfig, cost: CostModel, host_bandwidth: f64) -> Self {
        let blocks = (cost.kv_capacity_tokens() / u64::from(cfg.block_tokens)) as usize;
        Eager {
            kv: BlockManager::new(blocks, cfg.block_tokens),
            lanes: vec![EagerLane::default(); cost.parallelism().lanes()],
            cfg,
            cost,
            seqs: BTreeMap::new(),
            waiting_decode: VecDeque::new(),
            swapped: VecDeque::new(),
            migrating: BTreeSet::new(),
            pause_requests: BTreeSet::new(),
            pending_delay: SimDuration::ZERO,
            host_bandwidth,
            stats: InstanceStats::default(),
        }
    }

    pub(crate) fn enqueue_decode_arrival(&mut self, state: SeqState) {
        self.waiting_decode.push_back(state.id);
        self.seqs.insert(state.id.0, state);
    }

    /// A sequence prefilled here: its prompt's KV resident, promoted.
    pub(crate) fn enqueue_local(&mut self, mut state: SeqState) {
        self.kv
            .allocate(state.id.0, state.prefilled)
            .expect("sized to fit");
        state.phase = SeqPhase::DecodeWaiting;
        self.enqueue_decode_arrival(state);
    }

    pub(crate) fn kv_free_fraction(&self) -> f64 {
        self.kv.free_fraction()
    }

    pub(crate) fn running_decodes(&self) -> Vec<(RequestId, u32)> {
        self.lanes
            .iter()
            .flat_map(|l| l.running.iter())
            .filter(|id| !self.migrating.contains(&id.0))
            .map(|id| (*id, self.seqs[&id.0].context()))
            .collect()
    }

    fn total_running(&self) -> usize {
        self.lanes.iter().map(|l| l.running.len()).sum()
    }

    fn in_step(&self, id: RequestId) -> bool {
        self.lanes
            .iter()
            .any(|l| l.step.as_ref().is_some_and(|s| s.members.contains(&id)))
    }

    /// Admits waiting work and starts a step on every idle lane; returns
    /// `(lane, ends_at, newly decoding)` of each.
    pub(crate) fn try_start(&mut self, now: SimTime) -> Vec<(usize, SimTime, Vec<RequestId>)> {
        self.admit_decodes();
        let mut started = Vec::new();
        for lane in 0..self.lanes.len() {
            if self.lanes[lane].step.is_some() || self.lanes[lane].running.is_empty() {
                continue;
            }
            self.ensure_growth_blocks(lane);
            let members = self.lanes[lane].running.clone();
            if members.is_empty() {
                continue;
            }
            let mut newly = Vec::new();
            let mut sum_l = 0u64;
            for id in &members {
                let seq = self.seqs.get_mut(&id.0).expect("member known");
                sum_l += u64::from(seq.context().max(1));
                if seq.decode_start.is_none() {
                    newly.push(*id);
                }
            }
            let kernel = self.cost.decode_kernel_cost(members.len() as u64, sum_l);
            let mut duration = SimDuration::from_secs_f64(kernel.alone_secs());
            if !self.pending_delay.is_zero() {
                self.stats.swap_delay_secs += self.pending_delay.as_secs_f64();
                duration += self.pending_delay;
                self.pending_delay = SimDuration::ZERO;
            }
            let ends_at = now + duration.max(SimDuration::from_micros(1));
            for id in &newly {
                self.seqs.get_mut(&id.0).expect("member known").decode_start = Some(now);
            }
            self.lanes[lane].step = Some(EagerStep {
                started: now,
                ends_at,
                kernel,
                members,
            });
            started.push((lane, ends_at, newly));
        }
        started
    }

    fn admit_decodes(&mut self) {
        let capacity = self.cfg.max_batch * self.lanes.len();
        while let Some(&id) = self.swapped.front() {
            if self.total_running() >= capacity || self.in_step(id) {
                break;
            }
            let ctx = self.seqs[&id.0].context();
            if self.kv.free_blocks() < self.kv.blocks_for(ctx) {
                break;
            }
            self.swapped.pop_front();
            if self.kv.swapped_tokens(id.0).is_some() {
                let stored = self.kv.swap_in(id.0).expect("capacity checked");
                if ctx > stored {
                    self.kv
                        .append_tokens(id.0, ctx - stored)
                        .expect("capacity checked");
                }
                self.pending_delay += self.swap_duration(stored);
            } else {
                self.kv.allocate(id.0, ctx).expect("capacity checked");
                self.pending_delay += self.cost.step_time(&BatchPlan::single_prefill(ctx.max(1)));
            }
            self.join(id);
        }
        let swaps_waiting = !self.swapped.is_empty();
        while let Some(&id) = self.waiting_decode.front() {
            if self.total_running() >= capacity {
                break;
            }
            let ctx = self.seqs[&id.0].context();
            if self.kv.tokens_of(id.0).is_none() {
                if swaps_waiting || !self.kv.can_fit(ctx) {
                    break;
                }
                self.kv.allocate(id.0, ctx).expect("fit ensured");
            }
            self.waiting_decode.pop_front();
            self.join(id);
        }
    }

    fn join(&mut self, id: RequestId) {
        self.seqs.get_mut(&id.0).expect("admitted").phase = SeqPhase::Decoding;
        let lane = (0..self.lanes.len())
            .min_by_key(|&l| self.lanes[l].running.len())
            .expect("a lane");
        self.lanes[lane].running.push(id);
    }

    fn offset(&self, id: RequestId) -> u32 {
        self.seqs[&id.0].context() % self.cfg.block_tokens
    }

    fn ensure_growth_blocks(&mut self, lane: usize) {
        loop {
            let extra = self.lanes[lane]
                .running
                .iter()
                .filter(|&&id| self.offset(id) == 0)
                .count();
            if extra <= self.kv.free_blocks() {
                return;
            }
            let victim = self.lanes[lane]
                .running
                .iter()
                .rev()
                .find(|id| !self.migrating.contains(&id.0))
                .copied();
            match victim {
                Some(v) => self.preempt(v),
                None => return,
            }
        }
    }

    fn preempt(&mut self, id: RequestId) {
        for lane in &mut self.lanes {
            lane.running.retain(|&m| m != id);
        }
        let seq = self.seqs.get_mut(&id.0).expect("preempting known seq");
        seq.phase = SeqPhase::Swapped;
        seq.swap_outs += 1;
        match self.cfg.preemption {
            PreemptionMode::Swap => {
                let tokens = self.kv.swap_out(id.0);
                self.pending_delay += self.swap_duration(tokens);
            }
            PreemptionMode::Recompute => {
                self.kv.release(id.0);
                self.stats.recomputes += 1;
            }
        }
        self.swapped.push_back(id);
    }

    pub(crate) fn preempt_for_pressure(&mut self, id: RequestId) -> bool {
        let running = self.lanes.iter().any(|l| l.running.contains(&id));
        if !running || self.migrating.contains(&id.0) || self.pause_requests.contains(&id.0) {
            return false;
        }
        self.preempt(id);
        true
    }

    fn swap_duration(&self, tokens: u32) -> SimDuration {
        let bytes = u64::from(tokens) * self.cost.model().kv_bytes_per_token();
        SimDuration::from_secs_f64(bytes as f64 / self.host_bandwidth)
    }

    /// Completes lane `lane`'s step: every member gains a token, then
    /// finishes, appends one KV token (preempting under pressure) or
    /// pauses, in batch order.
    pub(crate) fn complete_step(&mut self, lane: usize) -> EagerOutcome {
        let step = self.lanes[lane].step.take().expect("a running step");
        self.stats
            .record_step(StepKind::Decode, step.ends_at - step.started, &step.kernel);
        let mut out = EagerOutcome::default();
        let mut appended = Vec::new();
        for &id in &step.members {
            let seq = self.seqs.get_mut(&id.0).expect("member known");
            seq.generated += 1;
            out.decoded.push(id);
            if seq.is_done() {
                self.detach(id);
                let seq = self.seqs.remove(&id.0).expect("finishing known seq");
                out.completed.push(CompletedSeq {
                    id,
                    generated: seq.generated,
                    swap_outs: seq.swap_outs,
                    migrations: seq.migrations,
                    decode_start: seq.decode_start,
                });
                continue;
            }
            if seq.phase == SeqPhase::Decoding {
                self.append_one(id, &appended);
                appended.push(id);
            }
            if self.pause_requests.contains(&id.0) {
                out.paused.push(self.detach_for_pause(id));
            }
        }
        out
    }

    fn append_one(&mut self, id: RequestId, already: &[RequestId]) {
        loop {
            if self.kv.append_tokens(id.0, 1).is_ok() {
                return;
            }
            let victim = self
                .lanes
                .iter()
                .flat_map(|l| l.running.iter().rev())
                .find(|&&v| v != id && !self.migrating.contains(&v.0) && !already.contains(&v))
                .copied();
            match victim {
                Some(v) => self.preempt(v),
                None => {
                    self.preempt(id);
                    return;
                }
            }
        }
    }

    /// Takes `id` out of every lane and queue and frees its KV.
    fn detach(&mut self, id: RequestId) {
        for lane in &mut self.lanes {
            lane.running.retain(|&m| m != id);
        }
        self.swapped.retain(|&r| r != id);
        self.waiting_decode.retain(|&r| r != id);
        self.kv.release(id.0);
        self.kv.forget_swapped(id.0);
        self.migrating.remove(&id.0);
        self.pause_requests.remove(&id.0);
    }

    fn detach_for_pause(&mut self, id: RequestId) -> PausedSeq {
        self.detach(id);
        let mut state = self.seqs.remove(&id.0).expect("pausing known seq");
        state.phase = SeqPhase::DecodeWaiting;
        PausedSeq { state }
    }

    pub(crate) fn mark_migrating(&mut self, id: RequestId) {
        self.migrating.insert(id.0);
    }

    pub(crate) fn request_pause(&mut self, id: RequestId) -> Option<PausedSeq> {
        let in_lane = self.lanes.iter().any(|l| l.running.contains(&id)) || self.in_step(id);
        if in_lane {
            self.pause_requests.insert(id.0);
            return None;
        }
        self.seqs
            .contains_key(&id.0)
            .then(|| self.detach_for_pause(id))
    }

    pub(crate) fn abort_sequence(&mut self, id: RequestId) -> bool {
        if self.in_step(id) || !self.seqs.contains_key(&id.0) {
            return false;
        }
        self.detach(id);
        self.seqs.remove(&id.0);
        true
    }

    pub(crate) fn fail_and_drain(&mut self) -> Vec<SeqState> {
        let lost = std::mem::take(&mut self.seqs).into_values().collect();
        self.waiting_decode.clear();
        self.swapped.clear();
        for lane in &mut self.lanes {
            *lane = EagerLane::default();
        }
        self.migrating.clear();
        self.pause_requests.clear();
        self.pending_delay = SimDuration::ZERO;
        self.kv = BlockManager::new(self.kv.total_blocks(), self.cfg.block_tokens);
        self.stats.crashes += 1;
        lost
    }
}
