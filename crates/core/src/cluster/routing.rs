//! Replica selection: arrival routing through prefix affinity and
//! Algorithm 1, and the handoff, migration and recovery target picks.

use super::{Cluster, Pending, Phase, NO_INSTANCE};
use windserve_kvcache::PrefixStore;
use windserve_metrics::PrefillSite;
use windserve_sim::SimTime;
use windserve_trace::{DispatchDecision, DispatchVerdict, TraceEvent, Tracer};
use windserve_workload::Request;

/// Minimum usable session prefix, in tokens, for a cache hit to be worth
/// taking: tiny prefixes are not worth skewing placement for (the
/// reproduction's default).
const MIN_HIT_TOKENS: u32 = 64;

/// Per-instance session prefix caches and what they served.
#[derive(Debug, Default)]
pub(super) struct PrefixCache {
    /// Index-aligned with the cluster's instances. Empty when
    /// [`crate::PrefixCacheConfig`] is absent, so non-session runs pay
    /// nothing.
    pub(super) stores: Vec<PrefixStore>,
    pub(super) hits: u64,
    pub(super) misses: u64,
    pub(super) evictions: u64,
    pub(super) cached_tokens: u64,
}

impl PrefixCache {
    /// Applies `change` to `inst`'s store (when caching is on) and records
    /// the evictions it caused: an insert's LRU/TTL sweep, or a crash
    /// clearing the store.
    pub(super) fn evicting(
        &mut self,
        inst: usize,
        now: SimTime,
        tracer: &mut Tracer,
        change: impl FnOnce(&mut PrefixStore),
    ) {
        let Some(store) = self.stores.get_mut(inst) else {
            return;
        };
        let before = store.stats();
        change(store);
        let after = store.stats();
        self.evictions += after.evictions - before.evictions;
        let evicted_tokens = after.evicted_tokens - before.evicted_tokens;
        if evicted_tokens > 0 {
            tracer.emit(now, || TraceEvent::PrefixEvicted {
                inst: inst as u32,
                evicted_tokens,
            });
        }
    }
}

/// Where an arrival goes.
pub(super) struct Placement {
    pub(super) inst: usize,
    pub(super) site: PrefillSite,
    /// Algorithm 1's decision, when it arbitrated.
    decision: Option<DispatchDecision>,
}

impl Cluster {
    /// True if instance `idx` is active, not crashed and past its warmup at
    /// `now`.
    pub(super) fn is_routable(&self, idx: usize, now: SimTime) -> bool {
        !self.crashed.get(idx).copied().unwrap_or(false) && self.activation.is_ready(idx, now)
    }

    /// The prefix-affinity signal: among `candidates`, the routable
    /// instance retaining the longest live prefix of `req`'s session
    /// context, with the retained length. `None` when caching or affinity
    /// is off, the request is not a session follow-up, or no candidate
    /// holds at least [`MIN_HIT_TOKENS`]. Candidates are scanned in the
    /// given order and ties keep the earliest, so routing is
    /// deterministic.
    fn best_prefix_site(
        &self,
        req: &Request,
        candidates: impl Iterator<Item = usize>,
        now: SimTime,
    ) -> Option<(usize, u32)> {
        let pc = self.cfg.prefix_cache?;
        if !pc.affinity || self.prefix.stores.is_empty() {
            return None;
        }
        let tag = req.session?;
        if tag.shared_prefix_tokens < MIN_HIT_TOKENS {
            return None;
        }
        let mut best: Option<(usize, u32)> = None;
        for i in candidates {
            if !self.is_routable(i, now) {
                continue;
            }
            let held = self.prefix.stores[i].peek(tag.session.0, tag.shared_prefix_tokens, now);
            if held >= MIN_HIT_TOKENS && best.is_none_or(|(_, b)| held > b) {
                best = Some((i, held));
            }
        }
        best
    }

    /// Serves `req`'s shared session prefix from the routed instance's
    /// cache, returning the token count prefill may skip (0 without
    /// caching, a session tag, or a sufficient hit). Mutates the store
    /// (LRU/TTL refresh) and records the hit or miss.
    fn prefix_serve(&mut self, req: &Request, inst: usize, now: SimTime) -> u32 {
        let Some(tag) = req.session else {
            return 0;
        };
        if self.prefix.stores.is_empty() || tag.shared_prefix_tokens < MIN_HIT_TOKENS {
            return 0;
        }
        let id = req.id;
        let served = self.prefix.stores[inst].lookup(tag.session.0, tag.shared_prefix_tokens, now);
        if served >= MIN_HIT_TOKENS {
            // `with_session` clamps the shared prefix below the prompt,
            // but keep the suffix invariant local too.
            let cached = served.min(req.prompt_tokens.saturating_sub(1));
            self.prefix.hits += 1;
            self.prefix.cached_tokens += u64::from(cached);
            if let Some(p) = self.pending.get_mut(id.0) {
                p.cached_prefix = cached;
            }
            let prompt_tokens = req.prompt_tokens;
            self.tracer.emit(now, || TraceEvent::PrefixHit {
                id,
                inst: inst as u32,
                cached_tokens: cached,
                prompt_tokens,
            });
            cached
        } else {
            self.prefix.misses += 1;
            self.tracer.emit(now, || TraceEvent::PrefixMiss {
                id,
                inst: inst as u32,
            });
            0
        }
    }

    /// Retains `tokens` of session KV in `inst`'s prefix cache after a
    /// prefill completed there, recording any evictions the insert (or
    /// its TTL sweep) caused.
    pub(super) fn prefix_retain(&mut self, session: u64, tokens: u32, inst: usize, now: SimTime) {
        self.prefix.evicting(inst, now, &mut self.tracer, |store| {
            store.insert(session, tokens, now)
        });
    }

    /// The prefill replica with the smallest predicted TTFT for `prompt`,
    /// or `None` when every prefill replica is down.
    pub(super) fn pick_prefill(&self, prompt: u32, now: SimTime) -> Option<usize> {
        self.prefill_idxs
            .iter()
            .filter(|&&i| self.is_routable(i, now))
            .min_by_key(|&&i| {
                self.coordinator
                    .predict_ttft(&self.profiler, &self.instances[i], prompt, now)
            })
            .copied()
    }

    /// The colocated replica with the least outstanding work.
    pub(super) fn pick_least_work(&self, now: SimTime) -> Option<usize> {
        (0..self.instances.len())
            .filter(|&i| self.is_routable(i, now))
            .min_by_key(|&i| {
                let inst = &self.instances[i];
                inst.waiting_prefill_len()
                    + inst.waiting_decode_len()
                    + inst.running_decode_count()
                    + inst.swapped_len()
            })
    }

    /// With every prefill replica down, the decode replica that hosts a
    /// whole request (guest prefill + decode) until one recovers: the
    /// shortest prefill queue, ties to the lowest index.
    pub(super) fn pick_guest_host(&self, now: SimTime) -> Option<usize> {
        self.decode_idxs
            .iter()
            .copied()
            .filter(|&i| self.is_routable(i, now))
            .min_by_key(|&i| (self.instances[i].waiting_prefill_len(), i))
    }

    /// Algorithm 1's best slot offer across routable decode replicas: the
    /// most slots, and the replica offering them (ties to the lowest
    /// index). `None` when every decode replica is down.
    fn best_decode_offer(&self, now: SimTime) -> Option<(u64, usize)> {
        self.decode_idxs
            .iter()
            .filter(|&&i| self.is_routable(i, now))
            .map(|&i| (self.coordinator.available_slots(&self.instances[i]), i))
            .max_by_key(|&(slots, i)| (slots, std::cmp::Reverse(i)))
    }

    /// The decode replica with the most free KV (ties: fewest waiting), or
    /// `None` when every decode replica is down.
    pub(super) fn pick_decode_for_handoff(&self, now: SimTime) -> Option<usize> {
        self.decode_idxs
            .iter()
            .filter(|&&i| self.is_routable(i, now))
            .max_by_key(|&&i| {
                let inst = &self.instances[i];
                (
                    inst.kv_free_tokens(),
                    std::cmp::Reverse(inst.waiting_decode_len()),
                )
            })
            .copied()
    }

    /// The prefill replica best able to host a migrant of `ctx` tokens.
    pub(super) fn pick_prefill_for_migration(&self, ctx: u32, now: SimTime) -> Option<usize> {
        self.prefill_idxs
            .iter()
            .copied()
            .filter(|&i| self.is_routable(i, now))
            .filter(|&i| {
                self.coordinator
                    .destination_can_host(&self.instances[i], ctx)
            })
            .max_by_key(|&i| self.instances[i].kv_free_tokens())
    }

    pub(super) fn on_arrival(&mut self, req: Request, now: SimTime) {
        let (placement, predicted_ttft) = self.route_arrival(&req, now);
        if self.cfg.overload.is_some() && !self.admit(&req, placement.as_ref(), predicted_ttft, now)
        {
            // Rejected or shed: the typed outcome is already recorded and
            // the request never becomes resident.
            return;
        }
        let (id, prompt_tokens, output_tokens) = (req.id, req.prompt_tokens, req.output_tokens);
        let site = match &placement {
            Some(p) => p.site,
            None if self.cfg.system.colocated() => PrefillSite::Colocated,
            None => PrefillSite::PrefillInstance,
        };
        let phase = match &placement {
            Some(p) => Phase::Prefill { inst: p.inst },
            // Every replica is down: park until a recovery.
            None => self.parked(0, NO_INSTANCE),
        };
        let admitted = Pending::admitted(req, site, predicted_ttft, phase);
        self.pending.insert(id.0, admitted);
        self.peak_pending = self.peak_pending.max(self.pending.len());
        let Some(Placement {
            inst,
            site,
            decision,
        }) = placement
        else {
            return;
        };
        self.tracer.emit(now, || TraceEvent::Queued {
            id,
            prompt_tokens,
            output_tokens,
            inst: inst as u32,
        });
        if let Some(d) = decision {
            self.tracer.emit(now, || TraceEvent::Dispatch(d));
        }
        let cached = self.prefix_serve(&req, inst, now);
        self.instances[inst].enqueue_prefill_cached(id, prompt_tokens, cached, output_tokens);
        if site == PrefillSite::DecodeInstance {
            self.counters.dispatched += 1;
        }
    }

    /// Places an arrival, and returns Algorithm 1's TTFT prediction (in
    /// seconds) for the prefill replica it weighed: `None` for colocated
    /// systems, which have no predictor, and while every prefill replica
    /// is down.
    fn route_arrival(&self, req: &Request, now: SimTime) -> (Option<Placement>, Option<f64>) {
        let place = |inst, site, decision| Placement {
            inst,
            site,
            decision,
        };
        if self.cfg.system.colocated() {
            // A live shared prefix beats load balance: recomputing it
            // costs more than a slightly longer queue.
            let inst = self
                .best_prefix_site(req, 0..self.instances.len(), now)
                .map(|(i, _)| i)
                .or_else(|| self.pick_least_work(now));
            return (inst.map(|i| place(i, PrefillSite::Colocated, None)), None);
        }
        // Prefix affinity: prefer the prefill replica retaining the longest
        // live prefix of this session's context; TTFT-based placement is
        // the fallback. Algorithm 1 still arbitrates below, over the
        // uncached suffix.
        let affinity = self.best_prefix_site(req, self.prefill_idxs.iter().copied(), now);
        let Some(p) = affinity
            .map(|(i, _)| i)
            .or_else(|| self.pick_prefill(req.prompt_tokens, now))
        else {
            let guest = self.pick_guest_host(now);
            return (
                guest.map(|d| place(d, PrefillSite::DecodeInstance, None)),
                None,
            );
        };
        // With a live prefix at `p` only the suffix needs computing;
        // predicting over the full prompt would overestimate TTFT and
        // dispatch work away from the very cache that makes it cheap.
        let effective_prompt = affinity
            .map(|(_, held)| req.prompt_tokens.saturating_sub(held).max(1))
            .unwrap_or(req.prompt_tokens);
        let ttft_pred = self.coordinator.predict_ttft(
            &self.profiler,
            &self.instances[p],
            effective_prompt,
            now,
        );
        let predicted = Some(ttft_pred.as_secs_f64());
        if !self.cfg.system.dispatch_enabled() {
            return (
                Some(place(p, PrefillSite::PrefillInstance, None)),
                predicted,
            );
        }
        // The best offer is recorded even for rejections, so an audit
        // shows *why* Algorithm 1 refused ("wanted 700 tokens, best offer
        // was 0"). No offer at all can never dispatch a non-empty prompt.
        let (slots_free, best) = self.best_decode_offer(now).unwrap_or((0, p));
        let verdict = self
            .coordinator
            .should_dispatch(ttft_pred, slots_free, req.prompt_tokens);
        let (target, site) = match verdict {
            DispatchVerdict::Dispatched => (best, PrefillSite::DecodeInstance),
            _ => (p, PrefillSite::PrefillInstance),
        };
        let decision = DispatchDecision {
            request: req.id,
            prompt_tokens: req.prompt_tokens,
            ttft_pred_secs: ttft_pred.as_secs_f64(),
            threshold_secs: self.coordinator.dispatch_threshold.as_secs_f64(),
            slots_free,
            verdict,
            target: target as u32,
        };
        (Some(place(target, site, Some(decision))), predicted)
    }
}
