//! A fixed probe of the host's current speed, timed just before each
//! measured replay.
//!
//! The benchmark host is shared: other tenants slow cache- and
//! memory-heavy code by up to 2.7x for minutes at a time, while a pure ALU
//! loop keeps its speed. The probe is random read-modify-writes over a
//! hash map of a million entries — tens of MB, like the simulator's own
//! state — so the host slows it together with the simulator. The program
//! under test never runs this code, so a change to the program cannot move
//! the probe's time.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Wall time of one probe pass on the reference host (a 2-vCPU Xeon VM)
/// while no other tenant interferes. Replay times measured in probe passes
/// are converted back to seconds at this speed; the value only sets the
/// scale, identically for every commit compared.
pub const NOMINAL_PASS_SECS: f64 = 0.030;

const ENTRIES: u64 = 1 << 20;
const UPDATES_PER_PASS: usize = 400_000;

/// A fixed-seed hasher, so every run probes the same table layout.
type FixedHasher = BuildHasherDefault<DefaultHasher>;

pub struct HostProbe {
    map: HashMap<u64, u64, FixedHasher>,
    state: u64,
}

impl HostProbe {
    pub fn new() -> Self {
        let mut map = HashMap::with_capacity_and_hasher(ENTRIES as usize, FixedHasher::default());
        for k in 0..ENTRIES {
            map.insert(k, 0);
        }
        HostProbe {
            map,
            state: 0x2545_f491_4f6c_dd1d,
        }
    }

    /// Wall seconds of one pass.
    pub fn pass(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..UPDATES_PER_PASS {
            self.state = self
                .state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            if let Some(v) = self.map.get_mut(&((self.state >> 20) % ENTRIES)) {
                *v = v.wrapping_add(1);
            }
        }
        black_box(&self.map);
        start.elapsed().as_secs_f64()
    }
}
