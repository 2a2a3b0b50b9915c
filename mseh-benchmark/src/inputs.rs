//! Seeded generation of every workload's inputs. The program under test
//! only ever sees what these generators produce; the same seed gives the
//! same sequence.

use mseh::systems::SystemId;

/// splitmix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6d73_6568_6265_6e63)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

pub const SYSTEMS: [SystemId; 7] = SystemId::ALL;
pub const ENVS: [&str; 5] = ["outdoor", "winter", "indoor", "office", "agricultural"];
pub const POLICIES: [&str; 4] = ["ladder", "neutral", "forecast", "fixed:0.05"];

/// `A`..`G`, the spelling the CLI and the wire accept.
pub fn system_letter(id: SystemId) -> String {
    format!("{id:?}")
}

/// One `mseh` invocation of the `cli-oneshot` mix.
#[derive(Debug, Clone, PartialEq)]
pub enum CliOp {
    Simulate {
        system: SystemId,
        env: &'static str,
        days: u32,
        policy: &'static str,
        seed: u64,
    },
    Arena {
        system: SystemId,
        env: &'static str,
        seed: u64,
    },
    Survey {
        env: &'static str,
        seed: u64,
    },
}

/// Arena invocations: two days over two scenario seeds each.
pub const CLI_ARENA_DAYS: u32 = 2;
pub const CLI_ARENA_SEEDS: u64 = 2;
/// Survey invocations: one day at the CLI's 10-minute resolution.
pub const CLI_SURVEY_DAYS: u32 = 1;

impl CliOp {
    pub fn args(&self) -> Vec<String> {
        match self {
            CliOp::Simulate {
                system,
                env,
                days,
                policy,
                seed,
            } => vec![
                "simulate".into(),
                "--system".into(),
                system_letter(*system),
                "--env".into(),
                (*env).into(),
                "--days".into(),
                days.to_string(),
                "--policy".into(),
                (*policy).into(),
                "--seed".into(),
                seed.to_string(),
            ],
            CliOp::Arena { system, env, seed } => vec![
                "arena".into(),
                "--system".into(),
                system_letter(*system),
                "--env".into(),
                (*env).into(),
                "--days".into(),
                CLI_ARENA_DAYS.to_string(),
                "--seeds".into(),
                CLI_ARENA_SEEDS.to_string(),
                "--seed".into(),
                seed.to_string(),
            ],
            CliOp::Survey { env, seed } => vec![
                "survey".into(),
                "--env".into(),
                (*env).into(),
                "--days".into(),
                CLI_SURVEY_DAYS.to_string(),
                "--seed".into(),
                seed.to_string(),
            ],
        }
    }
}

/// The `cli-oneshot` invocation sequence: 85 % `simulate`, 10 % `arena`,
/// 5 % `survey`, and every 50th invocation a repeat of an earlier one
/// (so output determinism is checked across processes).
///
/// The mix is stratified: kinds follow a fixed 20-slot cycle, and
/// `simulate` walks every system × horizon pair in turn, while the
/// environment, policy and seeds are drawn from the seed. Runs of any
/// length then share the mix's composition, and seeds differ only in
/// what is simulated.
#[derive(Debug)]
pub struct CliOps {
    rng: Rng,
    issued: Vec<CliOp>,
    simulates: usize,
    arenas: usize,
}

impl CliOps {
    pub fn new(seed: u64) -> Self {
        CliOps {
            rng: Rng::new(seed),
            issued: Vec::new(),
            simulates: 0,
            arenas: 0,
        }
    }

    /// The next invocation and, for a repeat, the index it repeats.
    pub fn next_op(&mut self) -> (CliOp, Option<usize>) {
        let i = self.issued.len();
        if i % 50 == 49 {
            let j = self.rng.below(i as u64) as usize;
            let op = self.issued[j].clone();
            self.issued.push(op.clone());
            return (op, Some(j));
        }
        let r = &mut self.rng;
        let op = match i % 20 {
            0..=16 => {
                let k = self.simulates;
                self.simulates += 1;
                CliOp::Simulate {
                    system: SYSTEMS[k % 7],
                    env: r.pick(&ENVS),
                    days: [7, 14, 28][k / 7 % 3],
                    policy: r.pick(&POLICIES),
                    seed: r.below(1000),
                }
            }
            17 | 18 => {
                let k = self.arenas;
                self.arenas += 1;
                CliOp::Arena {
                    system: [SystemId::B, SystemId::C][k % 2],
                    env: r.pick(&ENVS),
                    seed: r.below(1000),
                }
            }
            _ => CliOp::Survey {
                env: r.pick(&ENVS),
                seed: r.below(1000),
            },
        };
        self.issued.push(op.clone());
        (op, None)
    }
}

/// One daemon job of the `serve-mixed` mix.
#[derive(Debug, Clone, PartialEq)]
pub enum Job {
    Single {
        system: SystemId,
        env: &'static str,
        days: u32,
        policy: &'static str,
        seed: u64,
    },
    Campaign {
        system: SystemId,
        seed: u64,
    },
    Arena {
        system: SystemId,
        seed: u64,
    },
    Fleet {
        system: SystemId,
        seed: u64,
    },
}

pub const CAMPAIGN_SEEDS: u64 = 4;
pub const ARENA_JOB_SEEDS: u64 = 2;
pub const FLEET_JOB_POPULATION: u64 = 32;
pub const FLEET_JOB_JITTER: f64 = 0.1;
/// Campaign, arena and fleet jobs all span one day.
pub const BATCH_JOB_DAYS: u32 = 1;

impl Job {
    pub fn kind(&self) -> &'static str {
        match self {
            Job::Single { .. } => "single",
            Job::Campaign { .. } => "campaign",
            Job::Arena { .. } => "arena",
            Job::Fleet { .. } => "fleet",
        }
    }

    /// The `submit` request line (without the newline).
    pub fn submit_line(&self) -> String {
        match self {
            Job::Single {
                system,
                env,
                days,
                policy,
                seed,
            } => format!(
                "submit kind=single;system={};env={env};days={days};policy={policy};seed={seed}",
                system_letter(*system)
            ),
            Job::Campaign { system, seed } => format!(
                "submit kind=campaign;system={};seeds={CAMPAIGN_SEEDS};days={BATCH_JOB_DAYS};seed={seed}",
                system_letter(*system)
            ),
            Job::Arena { system, seed } => format!(
                "submit kind=arena;system={};seeds={ARENA_JOB_SEEDS};days={BATCH_JOB_DAYS};seed={seed}",
                system_letter(*system)
            ),
            Job::Fleet { system, seed } => format!(
                "submit kind=fleet;system={};population={FLEET_JOB_POPULATION};jitter={FLEET_JOB_JITTER};days={BATCH_JOB_DAYS};seed={seed}",
                system_letter(*system)
            ),
        }
    }
}

/// One client's `serve-mixed` job sequence: 70 % single, 10 % each of
/// campaign, arena and fleet, with every fifth submission repeating one
/// of the client's earlier specs (20 %, the share a result cache could
/// serve).
///
/// Stratified like [`CliOps`]: kinds follow a fixed 10-slot cycle and
/// single jobs walk every system × horizon pair, while environments,
/// policies, seeds and which spec repeats are drawn from the seed.
#[derive(Debug)]
pub struct Jobs {
    rng: Rng,
    issued: Vec<Job>,
    fresh: usize,
    singles: usize,
}

impl Jobs {
    pub fn new(seed: u64, client: u64) -> Self {
        Jobs {
            rng: Rng::new(seed.wrapping_mul(0x100_0000_01b3).wrapping_add(client + 1)),
            issued: Vec::new(),
            fresh: 0,
            singles: 0,
        }
    }

    /// The next job and whether it repeats an earlier spec.
    pub fn next_job(&mut self) -> (Job, bool) {
        let r = &mut self.rng;
        if self.issued.len() % 5 == 4 {
            let j = r.below(self.issued.len() as u64) as usize;
            let job = self.issued[j].clone();
            self.issued.push(job.clone());
            return (job, true);
        }
        let slot = self.fresh % 10;
        let cycle = self.fresh / 10;
        self.fresh += 1;
        let job = match slot {
            0..=6 => {
                let k = self.singles;
                self.singles += 1;
                Job::Single {
                    system: SYSTEMS[k % 7],
                    env: r.pick(&ENVS),
                    days: [1, 2, 7][k / 7 % 3],
                    policy: r.pick(&POLICIES),
                    seed: r.below(1000),
                }
            }
            7 => Job::Campaign {
                system: SYSTEMS[cycle % 7],
                seed: r.below(1000),
            },
            8 => Job::Arena {
                system: [SystemId::B, SystemId::C][cycle % 2],
                seed: r.below(1000),
            },
            _ => Job::Fleet {
                system: [SystemId::B, SystemId::C][cycle % 2],
                seed: r.below(1000),
            },
        };
        self.issued.push(job.clone());
        (job, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let mut a = CliOps::new(7);
        let mut b = CliOps::new(7);
        for _ in 0..200 {
            assert_eq!(a.next_op(), b.next_op());
        }
        let mut c = Jobs::new(7, 0);
        let mut d = Jobs::new(7, 0);
        let mut e = Jobs::new(7, 1);
        let (mut same, mut differ) = (true, false);
        for _ in 0..200 {
            let (x, y, z) = (c.next_job(), d.next_job(), e.next_job());
            same &= x == y;
            differ |= x != z;
        }
        assert!(same && differ);
    }

    #[test]
    fn every_fiftieth_invocation_repeats() {
        let mut ops = CliOps::new(1013);
        let all: Vec<_> = (0..150).map(|_| ops.next_op()).collect();
        for (i, (op, repeat)) in all.iter().enumerate() {
            if i % 50 == 49 {
                let j = repeat.expect("a repeat");
                assert!(j < i);
                assert_eq!(op, &all[j].0);
            } else {
                assert_eq!(*repeat, None);
            }
        }
    }
}
