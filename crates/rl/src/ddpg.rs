//! Deep deterministic policy gradient with parameter-space exploration.

use nn::{Activation, Adam, Matrix, Mlp};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use telemetry::Telemetry;

use crate::policy::project_to_simplex;
use crate::{AdaptiveParamNoise, OrnsteinUhlenbeck, ReplayBuffer, RunningNorm, StoredTransition};

/// The critic `Q(s, a)` with the paper's architecture: the action is
/// injected at the *second* hidden layer (§VI-A3 — "we insert one of
/// Critic's inputs — action — to the second layer").
///
/// Internally this is a one-layer trunk over the state followed by a head
/// over `[trunk(s) ‖ a]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Critic {
    trunk: Mlp,
    head: Mlp,
    action_dim: usize,
}

impl Critic {
    /// Creates a critic with hidden widths `hidden` (e.g. `[256, 256, 256]`
    /// for the paper's MSD critic).
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is empty or any dimension is zero.
    #[must_use]
    pub fn new<R: rand::Rng + ?Sized>(
        state_dim: usize,
        action_dim: usize,
        hidden: &[usize],
        rng: &mut R,
    ) -> Self {
        assert!(!hidden.is_empty(), "critic needs at least one hidden layer");
        // Trunk: state → first hidden layer.
        let trunk = Mlp::new(
            &[state_dim, hidden[0]],
            Activation::Relu,
            Activation::Relu,
            rng,
        );
        // Head: [h1 ‖ a] → remaining hidden layers → scalar Q.
        let mut sizes = vec![hidden[0] + action_dim];
        sizes.extend_from_slice(&hidden[1..]);
        sizes.push(1);
        let head = Mlp::new(&sizes, Activation::Relu, Activation::Linear, rng);
        Critic {
            trunk,
            head,
            action_dim,
        }
    }

    /// Q-values for a batch of `(state, action)` pairs, shape `(batch, 1)`.
    #[must_use]
    pub fn q(&self, states: &Matrix, actions: &Matrix) -> Matrix {
        let h = self.trunk.forward(states);
        let z = Matrix::hconcat(&[&h, actions]);
        self.head.forward(&z)
    }

    /// One MSE training step toward `targets`; returns the loss before the
    /// update. The gradient is computed once over the whole minibatch, so
    /// the result does not depend on the thread count.
    pub fn train(
        &mut self,
        states: &Matrix,
        actions: &Matrix,
        targets: &Matrix,
        trunk_opt: &mut Adam,
        head_opt: &mut Adam,
    ) -> f64 {
        let n = states.rows() as f64;
        let trunk_trace = self.trunk.forward_cached(states);
        let z = Matrix::hconcat(&[trunk_trace.output(), actions]);
        let head_trace = self.head.forward_cached(&z);
        let mut d_q = head_trace.output() - targets;
        let loss_sum = d_q.as_slice().iter().map(|&v| v * v).sum::<f64>();
        d_q.scale_in_place(2.0 / n);
        let (d_z, mut head_grads) = self.head.backward(&head_trace, &d_q);
        let d_h = d_z.columns(0, trunk_trace.output().cols());
        let (_, mut trunk_grads) = self.trunk.backward(&trunk_trace, &d_h);
        self.head.apply_gradients(&mut head_grads, head_opt);
        self.trunk.apply_gradients(&mut trunk_grads, trunk_opt);
        loss_sum / n
    }

    /// `∂Q/∂a` for each sample — the deterministic-policy-gradient term.
    #[must_use]
    pub fn action_gradient(&self, states: &Matrix, actions: &Matrix) -> Matrix {
        let h = self.trunk.forward(states);
        let z = Matrix::hconcat(&[&h, actions]);
        let ones = Matrix::from_vec(z.rows(), 1, vec![1.0; z.rows()]);
        let d_z = self.head.input_gradient(&z, &ones);
        d_z.columns(h.cols(), self.action_dim)
    }

    /// Polyak update toward `src`.
    ///
    /// # Panics
    ///
    /// Panics if architectures differ.
    pub fn soft_update_from(&mut self, src: &Critic, tau: f64) {
        self.trunk.soft_update_from(&src.trunk, tau);
        self.head.soft_update_from(&src.head, tau);
    }
}

/// The exploration strategy used while collecting experience.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Exploration {
    /// Parameter-space noise (the paper's choice, §IV-D): perturb a copy of
    /// the actor's weights; adapt the scale so the induced action-space
    /// distance tracks `delta`.
    ParamNoise {
        /// Initial perturbation standard deviation.
        initial_sigma: f64,
        /// Target action-space distance.
        delta: f64,
        /// Multiplicative adaption factor (> 1).
        alpha: f64,
        /// Re-perturb (and adapt) every this many exploratory actions.
        resample_every: usize,
    },
    /// Ornstein–Uhlenbeck noise added to the action, then re-projected onto
    /// the probability simplex — the classical DDPG exploration the paper
    /// compares against.
    ActionNoise {
        /// Mean-reversion rate.
        theta: f64,
        /// Volatility.
        sigma: f64,
    },
    /// No exploration: always act greedily.
    Greedy,
}

/// DDPG hyper-parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DdpgConfig {
    /// Hidden-layer widths shared by actor and critic (paper: `[256; 3]` for
    /// MSD, `[512; 3]` for LIGO).
    pub hidden: Vec<usize>,
    /// Actor learning rate.
    pub actor_lr: f64,
    /// Critic learning rate.
    pub critic_lr: f64,
    /// Discount factor γ.
    pub gamma: f64,
    /// Polyak target-update coefficient τ.
    pub tau: f64,
    /// Minibatch size.
    pub batch_size: usize,
    /// Replay-buffer capacity.
    pub buffer_capacity: usize,
    /// Exploration strategy.
    pub exploration: Exploration,
    /// Global gradient-norm clip.
    pub grad_clip: Option<f64>,
    /// Rewards are multiplied by this factor before being stored in the
    /// replay buffer. The paper's reward `1 − Σ w` reaches hundreds in
    /// magnitude under bursts; scaling keeps critic targets well
    /// conditioned without changing the optimal policy.
    pub reward_scale: f64,
    /// Standardise rewards with running statistics at batch-build time
    /// (OpenAI Baselines' `normalize_returns` analogue). The WIP reward
    /// spans two orders of magnitude between steady state and burst
    /// recovery; a fixed scale cannot condition the critic across both.
    pub normalize_rewards: bool,
    /// Train a second, independently initialised critic and use the
    /// minimum of the two target critics when forming TD targets (the
    /// clipped double-Q trick of TD3, Fujimoto et al.). Counters the value
    /// overestimation vanilla DDPG is prone to; off by default to match the
    /// paper's vanilla actor-critic.
    pub twin_critic: bool,
    /// Weight of the entropy bonus added to the actor objective
    /// (maximise `Q + β·H(π(s))`). A softmax actor that saturates to a
    /// one-hot vertex has a vanishing Jacobian — exploration noise can no
    /// longer move it and learning stalls; the entropy term keeps the
    /// policy off the vertices. Set to 0 to disable.
    pub entropy_weight: f64,
    /// RNG seed (weight init, sampling, noise).
    pub seed: u64,
}

impl DdpgConfig {
    /// The paper's configuration scaled to a hidden width (256 for MSD, 512
    /// for LIGO).
    #[must_use]
    pub fn paper(hidden_width: usize, seed: u64) -> Self {
        DdpgConfig {
            hidden: vec![hidden_width; 3],
            actor_lr: 1e-4,
            critic_lr: 1e-3,
            gamma: 0.95,
            tau: 1e-2,
            batch_size: 64,
            buffer_capacity: 100_000,
            exploration: Exploration::ParamNoise {
                initial_sigma: 0.05,
                delta: 0.1,
                alpha: 1.01,
                resample_every: 25,
            },
            grad_clip: Some(10.0),
            reward_scale: 1.0,
            normalize_rewards: true,
            twin_critic: false,
            entropy_weight: 2.0,
            seed,
        }
    }

    /// A tiny configuration for unit tests and doctests.
    #[must_use]
    pub fn small_test(seed: u64) -> Self {
        DdpgConfig {
            hidden: vec![16, 16],
            actor_lr: 1e-3,
            critic_lr: 1e-2,
            gamma: 0.9,
            tau: 0.05,
            batch_size: 8,
            buffer_capacity: 1_000,
            exploration: Exploration::ParamNoise {
                initial_sigma: 0.05,
                delta: 0.1,
                alpha: 1.01,
                resample_every: 10,
            },
            grad_clip: Some(10.0),
            reward_scale: 1.0,
            normalize_rewards: false,
            twin_critic: false,
            entropy_weight: 0.01,
            seed,
        }
    }
}

/// Statistics from one training step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainStats {
    /// Critic MSE before the update.
    pub critic_loss: f64,
    /// Mean Q-value of the actor's actions on the minibatch.
    pub mean_q: f64,
}

/// A detected training-health failure, raised by
/// [`Ddpg::try_train_step`] instead of letting a diverged agent keep
/// training (or a hot-path assertion kill the process). The trainer
/// boundary turns these into a rollback to the last good checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// The critic loss or mean Q of a step came back NaN or ±∞.
    NonFiniteLoss {
        /// The agent's lifetime train-step count when the failure occurred.
        step: u64,
        /// The offending critic loss.
        critic_loss: f64,
        /// The offending mean Q.
        mean_q: f64,
    },
    /// A network weight became NaN or ±∞ (sampled periodically).
    NonFiniteWeights {
        /// The agent's lifetime train-step count when the failure occurred.
        step: u64,
    },
    /// The critic loss blew past `factor ×` its exponential moving average —
    /// the classic shape of a diverging critic before it reaches NaN.
    CriticBlowup {
        /// The agent's lifetime train-step count when the failure occurred.
        step: u64,
        /// The offending critic loss.
        critic_loss: f64,
        /// The EWMA baseline the loss was compared against.
        ewma: f64,
        /// The trip threshold multiplier.
        factor: f64,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::NonFiniteLoss {
                step,
                critic_loss,
                mean_q,
            } => write!(
                f,
                "non-finite training loss at step {step}: critic_loss={critic_loss}, mean_q={mean_q}"
            ),
            TrainError::NonFiniteWeights { step } => {
                write!(f, "non-finite network weights detected at step {step}")
            }
            TrainError::CriticBlowup {
                step,
                critic_loss,
                ewma,
                factor,
            } => write!(
                f,
                "critic loss blow-up at step {step}: {critic_loss} > {factor} x EWMA {ewma}"
            ),
        }
    }
}

impl std::error::Error for TrainError {}

impl TrainError {
    /// A short machine-readable tag (`non_finite_loss`,
    /// `non_finite_weights`, `critic_blowup`) used in telemetry `recovery`
    /// events.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TrainError::NonFiniteLoss { .. } => "non_finite_loss",
            TrainError::NonFiniteWeights { .. } => "non_finite_weights",
            TrainError::CriticBlowup { .. } => "critic_blowup",
        }
    }
}

/// Divergence watchdog over a stream of [`TrainStats`].
///
/// Tracks an exponential moving average of the critic loss and trips when a
/// step's loss is non-finite or exceeds `blowup_factor ×` the EWMA after a
/// warm-up period (early training legitimately spikes while the critic
/// finds its scale). The monitor is pure bookkeeping — it never touches the
/// agent — so checking health cannot perturb training determinism.
///
/// # Examples
///
/// ```
/// use rl::{TrainHealth, TrainStats};
///
/// let mut health = TrainHealth::new(0.99, 1e4, 8);
/// for step in 0..20 {
///     let stats = TrainStats { critic_loss: 1.0, mean_q: 0.0 };
///     health.check(step, &stats).unwrap();
/// }
/// let spike = TrainStats { critic_loss: 1e9, mean_q: 0.0 };
/// assert!(health.check(20, &spike).is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainHealth {
    ewma: Option<f64>,
    beta: f64,
    blowup_factor: f64,
    warmup: usize,
    checked: usize,
}

impl TrainHealth {
    /// Creates a watchdog with EWMA smoothing `beta` (0 < beta < 1; higher
    /// is smoother), trip multiplier `blowup_factor` (> 1) and `warmup`
    /// checks during which blow-up detection is suppressed (non-finite
    /// values always trip, even during warm-up).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters.
    #[must_use]
    pub fn new(beta: f64, blowup_factor: f64, warmup: usize) -> Self {
        assert!(
            beta > 0.0 && beta < 1.0,
            "EWMA beta must be strictly inside (0, 1)"
        );
        assert!(
            blowup_factor.is_finite() && blowup_factor > 1.0,
            "blow-up factor must be finite and exceed 1"
        );
        TrainHealth {
            ewma: None,
            beta,
            blowup_factor,
            warmup,
            checked: 0,
        }
    }

    /// The defaults the MIRAS trainer uses: EWMA beta 0.99, trip at 10⁴×
    /// the moving average, 100-step warm-up.
    #[must_use]
    pub fn default_policy() -> Self {
        TrainHealth::new(0.99, 1e4, 100)
    }

    /// The current critic-loss EWMA, if any step has been observed yet.
    #[must_use]
    pub fn ewma(&self) -> Option<f64> {
        self.ewma
    }

    /// Checks one step's statistics, updating the EWMA on success. `step`
    /// is the agent's lifetime train-step index, carried into errors for
    /// diagnostics.
    ///
    /// # Errors
    ///
    /// [`TrainError::NonFiniteLoss`] when the loss or mean Q is NaN/±∞;
    /// [`TrainError::CriticBlowup`] when, past warm-up, the loss exceeds
    /// `blowup_factor ×` the EWMA. On error the EWMA is left at its last
    /// good value (the caller rolls the agent back anyway).
    pub fn check(&mut self, step: u64, stats: &TrainStats) -> Result<(), TrainError> {
        if !stats.critic_loss.is_finite() || !stats.mean_q.is_finite() {
            return Err(TrainError::NonFiniteLoss {
                step,
                critic_loss: stats.critic_loss,
                mean_q: stats.mean_q,
            });
        }
        if self.checked >= self.warmup {
            if let Some(ewma) = self.ewma {
                // The max(EWMA, tiny) floor keeps a near-zero baseline from
                // tripping on any normal-sized loss.
                let baseline = ewma.max(1e-6);
                if stats.critic_loss > self.blowup_factor * baseline {
                    return Err(TrainError::CriticBlowup {
                        step,
                        critic_loss: stats.critic_loss,
                        ewma,
                        factor: self.blowup_factor,
                    });
                }
            }
        }
        self.ewma = Some(match self.ewma {
            Some(e) => self.beta * e + (1.0 - self.beta) * stats.critic_loss,
            None => stats.critic_loss,
        });
        self.checked += 1;
        Ok(())
    }

    /// Forgets all history (used after a rollback, when the restored agent's
    /// loss scale may differ from the diverged run's).
    pub fn reset(&mut self) {
        self.ewma = None;
        self.checked = 0;
    }
}

/// A DDPG agent (Lillicrap et al.) with the paper's constraint-aware actor
/// and parameter-space exploration.
///
/// The actor's output layer is a softmax over action dimensions, so actions
/// are always probability distributions; converting them into consumer
/// counts (`m_j = ⌊C · a_j⌋`, [`crate::policy::allocation_floor`]) can never
/// exceed the consumer budget.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct Ddpg {
    actor: Mlp,
    actor_target: Mlp,
    perturbed_actor: Mlp,
    critic: Critic,
    critic_target: Critic,
    critic2: Option<Critic>,
    critic2_target: Option<Critic>,
    actor_opt: Adam,
    critic_trunk_opt: Adam,
    critic_head_opt: Adam,
    critic2_trunk_opt: Adam,
    critic2_head_opt: Adam,
    replay: ReplayBuffer,
    config: DdpgConfig,
    param_noise: Option<AdaptiveParamNoise>,
    action_noise: Option<OrnsteinUhlenbeck>,
    obs_norm: RunningNorm,
    reward_norm: RunningNorm,
    recent_states: Vec<Vec<f64>>,
    steps_since_resample: usize,
    rng: SmallRng,
    telemetry: Telemetry,
    train_steps_done: u64,
    /// Reused buffer for the normalised state in [`Ddpg::act_exploratory`],
    /// so single-lane rollouts stop allocating it every step. Pure scratch:
    /// excluded from snapshots and never read across calls.
    norm_buf: Vec<f64>,
}

/// How often (in train steps) the expensive target-network divergence
/// diagnostic is sampled when telemetry is enabled.
const TARGET_DIVERGENCE_EVERY: u64 = 100;

/// Maximum number of recent states kept for parameter-noise adaption.
const RECENT_STATES_CAP: usize = 128;

/// How often (in train steps) [`Ddpg::try_train_step`] scans network
/// weights for non-finite values. A full scan walks every parameter, so it
/// is sampled rather than run per step; a NaN weight also shows up as a NaN
/// loss on the very next minibatch that touches it.
const WEIGHT_CHECK_EVERY: u64 = 50;

impl Ddpg {
    /// Creates an agent for `state_dim`-dimensional states and
    /// `action_dim`-dimensional (simplex) actions.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or the config is degenerate.
    #[must_use]
    pub fn new(state_dim: usize, action_dim: usize, config: DdpgConfig) -> Self {
        assert!(
            state_dim > 0 && action_dim > 0,
            "dimensions must be positive"
        );
        assert!(config.batch_size > 0, "batch size must be positive");
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let mut actor_sizes = vec![state_dim];
        actor_sizes.extend_from_slice(&config.hidden);
        actor_sizes.push(action_dim);
        let actor = Mlp::new(
            &actor_sizes,
            Activation::Relu,
            Activation::Softmax,
            &mut rng,
        );
        let critic = Critic::new(state_dim, action_dim, &config.hidden, &mut rng);
        let critic2 = config
            .twin_critic
            .then(|| Critic::new(state_dim, action_dim, &config.hidden, &mut rng));
        let actor_target = actor.clone();
        let critic_target = critic.clone();
        let critic2_target = critic2.clone();
        let perturbed_actor = actor.clone();

        let clip = config.grad_clip;
        let mk = |lr: f64| match clip {
            Some(c) => Adam::new(lr).with_clip_norm(c),
            None => Adam::new(lr),
        };

        let (param_noise, action_noise) = match config.exploration {
            Exploration::ParamNoise {
                initial_sigma,
                delta,
                alpha,
                ..
            } => (
                Some(AdaptiveParamNoise::new(initial_sigma, delta, alpha)),
                None,
            ),
            Exploration::ActionNoise { theta, sigma } => {
                (None, Some(OrnsteinUhlenbeck::new(action_dim, theta, sigma)))
            }
            Exploration::Greedy => (None, None),
        };

        let mut agent = Ddpg {
            actor_opt: mk(config.actor_lr),
            critic_trunk_opt: mk(config.critic_lr),
            critic_head_opt: mk(config.critic_lr),
            critic2_trunk_opt: mk(config.critic_lr),
            critic2_head_opt: mk(config.critic_lr),
            replay: ReplayBuffer::new(config.buffer_capacity),
            actor,
            actor_target,
            perturbed_actor,
            critic,
            critic_target,
            critic2,
            critic2_target,
            param_noise,
            action_noise,
            obs_norm: RunningNorm::new(state_dim),
            reward_norm: RunningNorm::new(1),
            recent_states: Vec::new(),
            steps_since_resample: 0,
            config,
            rng,
            telemetry: Telemetry::noop(),
            train_steps_done: 0,
            norm_buf: Vec::new(),
        };
        agent.resample_perturbation();
        agent
    }

    /// The greedy (deterministic) policy: a probability distribution over
    /// action dimensions. States pass through the running observation
    /// normaliser (as in OpenAI Baselines' DDPG, which the paper used).
    #[must_use]
    pub fn act(&self, state: &[f64]) -> Vec<f64> {
        self.actor.forward_one(&self.obs_norm.normalize(state))
    }

    /// An exploratory action according to the configured strategy. The
    /// result is always a valid distribution (action noise is projected back
    /// onto the simplex).
    pub fn act_exploratory(&mut self, state: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.act_exploratory_into(state, &mut out);
        out
    }

    /// [`Ddpg::act_exploratory`] writing into a caller-owned buffer
    /// (cleared and refilled), so tight rollout loops reuse one action
    /// allocation. Bitwise-identical results and RNG consumption.
    pub fn act_exploratory_into(&mut self, state: &[f64], out: &mut Vec<f64>) {
        self.remember_state(state);
        let mut z = std::mem::take(&mut self.norm_buf);
        self.obs_norm.normalize_into(state, &mut z);
        match &self.config.exploration {
            Exploration::ParamNoise { resample_every, .. } => {
                let resample_every = *resample_every;
                self.steps_since_resample += 1;
                if self.steps_since_resample >= resample_every {
                    self.adapt_and_resample();
                }
                self.perturbed_actor.forward_one_into(&z, out);
            }
            Exploration::ActionNoise { .. } => {
                self.actor.forward_one_into(&z, out);
                let noise = self
                    .action_noise
                    .as_mut()
                    .expect("action noise configured")
                    .sample(&mut self.rng);
                for (ai, ni) in out.iter_mut().zip(&noise) {
                    *ai += ni;
                }
                let projected = project_to_simplex(out);
                out.clear();
                out.extend_from_slice(&projected);
            }
            Exploration::Greedy => self.actor.forward_one_into(state, out),
        }
        self.norm_buf = z;
    }

    /// Exploratory actions for a whole batch of lockstep rollout lanes: row
    /// `i` of `states` is lane `i`'s state, row `i` of the result its action.
    ///
    /// The batch is processed with **one** actor forward instead of
    /// `states.rows()` separate GEMV calls — the point of lockstep rollouts.
    /// At batch size 1 this consumes RNG and mutates internal state exactly
    /// like one [`Ddpg::act_exploratory`] call, so `Lockstep(1)` training is
    /// bit-identical to sequential training. For larger batches the
    /// parameter-noise resample clock ticks once per *batched* step (all
    /// lanes share the same perturbation, resampled on the shared schedule)
    /// and, under action noise, OU draws are consumed in lane order —
    /// deterministic, but a different stream interleaving than B separate
    /// sequential rollouts would produce.
    ///
    /// # Panics
    ///
    /// Panics if `states` has no rows or a column count other than the
    /// agent's state dimension.
    pub fn act_exploratory_batch(&mut self, states: &Matrix) -> Matrix {
        assert!(states.rows() > 0, "need at least one lane");
        assert_eq!(
            states.cols(),
            self.obs_norm.dim(),
            "state dimension mismatch"
        );
        for r in 0..states.rows() {
            self.remember_state(states.row(r));
        }
        let mut z = Matrix::zeros(states.rows(), states.cols());
        let mut buf = std::mem::take(&mut self.norm_buf);
        for r in 0..states.rows() {
            self.obs_norm.normalize_into(states.row(r), &mut buf);
            z.row_mut(r).copy_from_slice(&buf);
        }
        self.norm_buf = buf;
        match &self.config.exploration {
            Exploration::ParamNoise { resample_every, .. } => {
                let resample_every = *resample_every;
                self.steps_since_resample += 1;
                if self.steps_since_resample >= resample_every {
                    self.adapt_and_resample();
                }
                self.perturbed_actor.forward(&z)
            }
            Exploration::ActionNoise { .. } => {
                let mut a = self.actor.forward(&z);
                for r in 0..a.rows() {
                    let noise = self
                        .action_noise
                        .as_mut()
                        .expect("action noise configured")
                        .sample(&mut self.rng);
                    let row = a.row_mut(r);
                    for (ai, ni) in row.iter_mut().zip(&noise) {
                        *ai += ni;
                    }
                    let projected = project_to_simplex(row);
                    row.copy_from_slice(&projected);
                }
                a
            }
            Exploration::Greedy => self.actor.forward(states),
        }
    }

    /// The raw (pre-projection) noisy action for the exploration ablation:
    /// with action noise this may leave the simplex — i.e. violate the
    /// consumer budget. Returns the greedy action for other strategies.
    pub fn act_exploratory_unprojected(&mut self, state: &[f64]) -> Vec<f64> {
        match &self.config.exploration {
            Exploration::ActionNoise { .. } => {
                let mut a = self.actor.forward_one(&self.obs_norm.normalize(state));
                let noise = self
                    .action_noise
                    .as_mut()
                    .expect("action noise configured")
                    .sample(&mut self.rng);
                for (ai, ni) in a.iter_mut().zip(&noise) {
                    *ai += ni;
                }
                a
            }
            _ => self.act_exploratory(state),
        }
    }

    /// Records a transition in the replay buffer. The reward is scaled by
    /// the configured `reward_scale` before storage.
    ///
    /// Transitions containing non-finite values are rejected by the buffer
    /// (see [`ReplayBuffer::push`]); each rejection increments the
    /// `replay.rejected_nonfinite` telemetry counter so poisoned inputs are
    /// visible instead of silently corrupting later minibatches.
    pub fn observe(&mut self, state: &[f64], action: &[f64], reward: f64, next_state: &[f64]) {
        let scaled = reward * self.config.reward_scale;
        let stored = self.replay.push(StoredTransition {
            state: state.to_vec(),
            action: action.to_vec(),
            reward: scaled,
            next_state: next_state.to_vec(),
        });
        if stored {
            // Running statistics are only fed accepted data, so a poisoned
            // observation cannot corrupt the normalisers either.
            self.obs_norm.update(state);
            self.reward_norm.update(&[scaled]);
        } else {
            self.telemetry.counter("replay.rejected_nonfinite", 1);
        }
    }

    /// Records one transition per lockstep lane, in lane order: row `i` of
    /// each matrix and `rewards[i]` form lane `i`'s transition. Equivalent
    /// to `rows` sequential [`Ddpg::observe`] calls.
    ///
    /// # Panics
    ///
    /// Panics if the row or reward counts disagree.
    pub fn observe_batch(
        &mut self,
        states: &Matrix,
        actions: &Matrix,
        rewards: &[f64],
        next_states: &Matrix,
    ) {
        let b = states.rows();
        assert_eq!(actions.rows(), b, "action row count mismatch");
        assert_eq!(next_states.rows(), b, "next-state row count mismatch");
        assert_eq!(rewards.len(), b, "reward count mismatch");
        for (r, &reward) in rewards.iter().enumerate() {
            self.observe(states.row(r), actions.row(r), reward, next_states.row(r));
        }
    }

    /// Runs one minibatch update (critic, actor, target networks). Returns
    /// `None` while the replay buffer holds fewer than `batch_size`
    /// transitions.
    pub fn train_step(&mut self) -> Option<TrainStats> {
        let b = self.config.batch_size;
        if self.replay.len() < b {
            return None;
        }
        let batch = self.replay.sample(b, &mut self.rng);
        // Replay stores raw states; normalise with the *current* running
        // statistics at batch-build time.
        let state_rows: Vec<Vec<f64>> = batch
            .iter()
            .map(|t| self.obs_norm.normalize(&t.state))
            .collect();
        let next_rows: Vec<Vec<f64>> = batch
            .iter()
            .map(|t| self.obs_norm.normalize(&t.next_state))
            .collect();
        let states = Matrix::from_rows(&state_rows.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let actions = Matrix::from_rows(
            &batch
                .iter()
                .map(|t| t.action.as_slice())
                .collect::<Vec<_>>(),
        );
        let rewards: Vec<f64> = if self.config.normalize_rewards {
            batch
                .iter()
                .map(|t| self.reward_norm.normalize(&[t.reward])[0])
                .collect()
        } else {
            batch.iter().map(|t| t.reward).collect()
        };
        let next_states =
            Matrix::from_rows(&next_rows.iter().map(Vec::as_slice).collect::<Vec<_>>());

        // Critic target: y = r + γ · Q'(s', μ'(s')); with a twin critic the
        // clipped double-Q minimum of both target critics is used (TD3).
        let next_actions = self.actor_target.forward(&next_states);
        let next_q = self.critic_target.q(&next_states, &next_actions);
        let next_q2 = self
            .critic2_target
            .as_ref()
            .map(|c| c.q(&next_states, &next_actions));
        let mut targets = Matrix::zeros(b, 1);
        for (i, &r) in rewards.iter().enumerate() {
            let mut q = next_q.get(i, 0);
            if let Some(q2) = &next_q2 {
                q = q.min(q2.get(i, 0));
            }
            targets.set(i, 0, r + self.config.gamma * q);
        }
        let critic_loss = self.critic.train(
            &states,
            &actions,
            &targets,
            &mut self.critic_trunk_opt,
            &mut self.critic_head_opt,
        );
        if let Some(c2) = &mut self.critic2 {
            let _ = c2.train(
                &states,
                &actions,
                &targets,
                &mut self.critic2_trunk_opt,
                &mut self.critic2_head_opt,
            );
        }

        // Actor: ascend ∂Q/∂a through the deterministic policy gradient,
        // plus an entropy bonus that prevents softmax-vertex collapse.
        // Loss = −Q − β·H(a); with H = −Σ a ln a the output gradient is
        // −∂Q/∂a + β (ln a + 1), averaged over the batch.
        let beta = self.config.entropy_weight;
        let inv_b = 1.0 / b as f64;
        let trace = self.actor.forward_cached(&states);
        let policy_actions = trace.output();
        let q_sum: f64 = self
            .critic
            .q(&states, policy_actions)
            .as_slice()
            .iter()
            .sum();
        let mut d_out = self.critic.action_gradient(&states, policy_actions);
        d_out.scale_in_place(-inv_b);
        if beta > 0.0 {
            for r in 0..d_out.rows() {
                for c in 0..d_out.cols() {
                    let a = policy_actions.get(r, c).max(1e-8);
                    let g = d_out.get(r, c) + beta * (a.ln() + 1.0) * inv_b;
                    d_out.set(r, c, g);
                }
            }
        }
        let (_, mut grads) = self.actor.backward(&trace, &d_out);
        let mean_q = q_sum * inv_b;
        self.actor.apply_gradients(&mut grads, &mut self.actor_opt);

        // Polyak updates.
        self.actor_target
            .soft_update_from(&self.actor, self.config.tau);
        self.critic_target
            .soft_update_from(&self.critic, self.config.tau);
        if let (Some(t), Some(c)) = (&mut self.critic2_target, &self.critic2) {
            t.soft_update_from(c, self.config.tau);
        }

        self.train_steps_done += 1;
        if self.telemetry.is_enabled() {
            self.telemetry.counter("ddpg.train_steps", 1);
            self.telemetry.gauge("ddpg.critic_loss", critic_loss);
            self.telemetry.gauge("ddpg.mean_q", mean_q);
            self.telemetry.observe("ddpg.critic_loss", critic_loss);
            if self
                .train_steps_done
                .is_multiple_of(TARGET_DIVERGENCE_EVERY)
            {
                self.telemetry
                    .gauge("ddpg.target_divergence", self.target_divergence());
            }
        }

        Some(TrainStats {
            critic_loss,
            mean_q,
        })
    }

    /// Runs one minibatch update under the divergence watchdog.
    ///
    /// Semantically [`Ddpg::train_step`] followed by `health.check` — plus a
    /// periodic (every [`WEIGHT_CHECK_EVERY`] steps) scan of all network
    /// weights for non-finite values. Returns `Ok(None)` while the replay
    /// buffer is still filling.
    ///
    /// # Errors
    ///
    /// Propagates the watchdog's [`TrainError`]s; additionally raises
    /// [`TrainError::NonFiniteWeights`] when the weight scan finds NaN/±∞.
    /// On error the agent's weights are in an unknown (possibly poisoned)
    /// state — the caller is expected to roll back to a checkpoint.
    pub fn try_train_step(
        &mut self,
        health: &mut TrainHealth,
    ) -> Result<Option<TrainStats>, TrainError> {
        let Some(stats) = self.train_step() else {
            return Ok(None);
        };
        let step = self.train_steps_done;
        health.check(step, &stats)?;
        if step.is_multiple_of(WEIGHT_CHECK_EVERY) && !self.weights_are_finite() {
            return Err(TrainError::NonFiniteWeights { step });
        }
        Ok(Some(stats))
    }

    /// Whether every weight of every network (actor, critics, targets) is
    /// finite. A full parameter walk — prefer the sampled check inside
    /// [`Ddpg::try_train_step`] on hot paths.
    #[must_use]
    pub fn weights_are_finite(&self) -> bool {
        let mlp_ok = |m: &Mlp| m.flat_params().iter().all(|w| w.is_finite());
        let critic_ok = |c: &Critic| mlp_ok(&c.trunk) && mlp_ok(&c.head);
        mlp_ok(&self.actor)
            && mlp_ok(&self.actor_target)
            && critic_ok(&self.critic)
            && critic_ok(&self.critic_target)
            && self.critic2.as_ref().is_none_or(critic_ok)
            && self.critic2_target.as_ref().is_none_or(critic_ok)
    }

    /// Halves the parameter-noise scale (no-op under other exploration
    /// strategies). The watchdog calls this after a rollback: divergence
    /// under parameter noise usually means exploration kicked the policy
    /// somewhere the critic cannot follow, so the retry explores more
    /// gently.
    pub fn halve_param_noise(&mut self) {
        if let Some(noise) = &mut self.param_noise {
            noise.scale_sigma(0.5);
        }
    }

    /// Replaces the agent's RNG stream with one seeded from `seed` and
    /// draws a fresh perturbation from it. Used after a rollback so the
    /// retry does not replay the exact random choices that led to the
    /// failure.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = SmallRng::seed_from_u64(seed);
        self.resample_perturbation();
    }

    /// Captures the agent's complete state — networks, target networks,
    /// optimiser moments, replay buffer, exploration state, normalisers and
    /// the RNG stream — as a serialisable snapshot. Restoring with
    /// [`Ddpg::from_snapshot`] resumes training bit-identically.
    #[must_use]
    pub fn snapshot(&self) -> DdpgSnapshot {
        DdpgSnapshot {
            actor: self.actor.clone(),
            actor_target: self.actor_target.clone(),
            perturbed_actor: self.perturbed_actor.clone(),
            critic: self.critic.clone(),
            critic_target: self.critic_target.clone(),
            critic2: self.critic2.clone(),
            critic2_target: self.critic2_target.clone(),
            actor_opt: self.actor_opt.clone(),
            critic_trunk_opt: self.critic_trunk_opt.clone(),
            critic_head_opt: self.critic_head_opt.clone(),
            critic2_trunk_opt: self.critic2_trunk_opt.clone(),
            critic2_head_opt: self.critic2_head_opt.clone(),
            replay: self.replay.clone(),
            config: self.config.clone(),
            param_noise: self.param_noise.clone(),
            action_noise: self.action_noise.clone(),
            obs_norm: self.obs_norm.clone(),
            reward_norm: self.reward_norm.clone(),
            recent_states: self.recent_states.clone(),
            steps_since_resample: self.steps_since_resample,
            rng_state: self.rng.state(),
            train_steps_done: self.train_steps_done,
        }
    }

    /// Rebuilds an agent from a [`Ddpg::snapshot`] capture. Telemetry is
    /// detached (re-attach with [`Ddpg::set_telemetry`]).
    #[must_use]
    pub fn from_snapshot(s: DdpgSnapshot) -> Self {
        Ddpg {
            actor: s.actor,
            actor_target: s.actor_target,
            perturbed_actor: s.perturbed_actor,
            critic: s.critic,
            critic_target: s.critic_target,
            critic2: s.critic2,
            critic2_target: s.critic2_target,
            actor_opt: s.actor_opt,
            critic_trunk_opt: s.critic_trunk_opt,
            critic_head_opt: s.critic_head_opt,
            critic2_trunk_opt: s.critic2_trunk_opt,
            critic2_head_opt: s.critic2_head_opt,
            replay: s.replay,
            config: s.config,
            param_noise: s.param_noise,
            action_noise: s.action_noise,
            obs_norm: s.obs_norm,
            reward_norm: s.reward_norm,
            recent_states: s.recent_states,
            steps_since_resample: s.steps_since_resample,
            rng: SmallRng::from_state(s.rng_state),
            telemetry: Telemetry::noop(),
            train_steps_done: s.train_steps_done,
            norm_buf: Vec::new(),
        }
    }

    /// Mean absolute parameter gap between the actor and its Polyak target —
    /// a read-only diagnostic of how far the target network lags.
    #[must_use]
    pub fn target_divergence(&self) -> f64 {
        let a = self.actor.flat_params();
        let t = self.actor_target.flat_params();
        if a.is_empty() {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let n = a.len() as f64;
        a.iter().zip(&t).map(|(x, y)| (x - y).abs()).sum::<f64>() / n
    }

    /// Attaches a telemetry handle: each train step records its critic loss
    /// and mean Q, sigma adaptions emit `ddpg.sigma_adapt` events, and the
    /// target-network divergence is sampled periodically. Recording is
    /// observability-only — training results stay bit-identical.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Number of transitions currently stored.
    #[must_use]
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }

    /// The current parameter-noise scale, when parameter noise is active.
    #[must_use]
    pub fn param_noise_sigma(&self) -> Option<f64> {
        self.param_noise.as_ref().map(AdaptiveParamNoise::sigma)
    }

    /// Read access to the greedy actor network.
    #[must_use]
    pub fn actor(&self) -> &Mlp {
        &self.actor
    }

    /// Read access to the critic.
    #[must_use]
    pub fn critic(&self) -> &Critic {
        &self.critic
    }

    /// The running observation normaliser (fed by [`Ddpg::observe`]).
    #[must_use]
    pub fn obs_normalizer(&self) -> &RunningNorm {
        &self.obs_norm
    }

    /// Folds a state into the observation normaliser without storing a
    /// transition — used when collecting environment-model data that never
    /// enters the replay buffer (MIRAS's collection phase).
    pub fn observe_state(&mut self, state: &[f64]) {
        self.obs_norm.update(state);
    }

    /// Mutable access to the replay buffer. This is a fault-injection /
    /// testing hook (e.g. poisoning a batch via
    /// [`ReplayBuffer::push_unchecked`] to exercise the divergence
    /// watchdog); normal experience flows through [`Ddpg::observe`].
    pub fn replay_mut(&mut self) -> &mut ReplayBuffer {
        &mut self.replay
    }

    /// Forces a fresh perturbation of the exploration actor (e.g. at episode
    /// boundaries).
    pub fn resample_perturbation(&mut self) {
        if let Some(noise) = &self.param_noise {
            let sigma = noise.sigma();
            self.perturbed_actor.copy_params_from(&self.actor);
            self.perturbed_actor
                .add_parameter_noise(sigma, &mut self.rng);
        }
        if let Some(ou) = &mut self.action_noise {
            ou.reset();
        }
        self.steps_since_resample = 0;
    }

    fn remember_state(&mut self, state: &[f64]) {
        if self.recent_states.len() >= RECENT_STATES_CAP {
            self.recent_states.remove(0);
        }
        self.recent_states.push(state.to_vec());
    }

    /// Measures the action-space distance the current perturbation induces
    /// on recent states, adapts sigma, and re-perturbs.
    fn adapt_and_resample(&mut self) {
        if let Some(noise) = &mut self.param_noise {
            if !self.recent_states.is_empty() {
                let normed: Vec<Vec<f64>> = self
                    .recent_states
                    .iter()
                    .map(|s| self.obs_norm.normalize(s))
                    .collect();
                let rows: Vec<&[f64]> = normed.iter().map(Vec::as_slice).collect();
                let states = Matrix::from_rows(&rows);
                let clean = self.actor.forward(&states);
                let noisy = self.perturbed_actor.forward(&states);
                let diff = &clean - &noisy;
                let mse = diff.as_slice().iter().map(|&v| v * v).sum::<f64>()
                    / diff.as_slice().len() as f64;
                let distance = mse.sqrt();
                noise.adapt(distance);
                if self.telemetry.is_enabled() {
                    let sigma = noise.sigma();
                    self.telemetry.gauge("ddpg.sigma", sigma);
                    self.telemetry.event(
                        "ddpg.sigma_adapt",
                        &[
                            ("sigma", telemetry::Value::Float(sigma)),
                            ("action_distance", telemetry::Value::Float(distance)),
                        ],
                    );
                }
            }
        }
        self.resample_perturbation();
    }

    /// A frozen, self-contained copy of the *acting-side* weights: the
    /// deterministic actor, the observation normaliser it acts through, and
    /// (under parameter-space exploration) the current noise scale σ.
    ///
    /// This is the unit of the distributed trainer's versioned weight
    /// broadcast: the learner snapshots it after each ordered merge, stamps
    /// a version number on it, and rollout workers act on the copy without
    /// ever touching the live agent.
    #[must_use]
    pub fn policy_weights(&self) -> PolicyWeights {
        PolicyWeights {
            actor: self.actor.clone(),
            obs_norm: self.obs_norm.clone(),
            sigma: self.param_noise.as_ref().map(AdaptiveParamNoise::sigma),
        }
    }
}

/// The complete serialisable state of a [`Ddpg`] agent, produced by
/// [`Ddpg::snapshot`] and consumed by [`Ddpg::from_snapshot`].
///
/// Fields are intentionally private: the snapshot is an opaque token whose
/// only contract is bit-identical resume. It exists as a separate type
/// (rather than serde on `Ddpg` itself) because the RNG stream and the
/// telemetry handle need explicit translation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DdpgSnapshot {
    actor: Mlp,
    actor_target: Mlp,
    perturbed_actor: Mlp,
    critic: Critic,
    critic_target: Critic,
    critic2: Option<Critic>,
    critic2_target: Option<Critic>,
    actor_opt: Adam,
    critic_trunk_opt: Adam,
    critic_head_opt: Adam,
    critic2_trunk_opt: Adam,
    critic2_head_opt: Adam,
    replay: ReplayBuffer,
    config: DdpgConfig,
    param_noise: Option<AdaptiveParamNoise>,
    action_noise: Option<OrnsteinUhlenbeck>,
    obs_norm: RunningNorm,
    reward_norm: RunningNorm,
    recent_states: Vec<Vec<f64>>,
    steps_since_resample: usize,
    rng_state: [u64; 4],
    train_steps_done: u64,
}

/// The acting-side weights of a [`Ddpg`] agent, frozen at a point in time
/// (see [`Ddpg::policy_weights`]).
///
/// A `PolicyWeights` value is immutable and self-contained — it carries the
/// actor network, the running observation normaliser, and the
/// parameter-noise scale σ (when parameter-space exploration is configured).
/// Turn it into an executable policy with [`PolicyWeights::perturbed`]
/// (exploration: one fresh weight-space perturbation, as the lockstep loop
/// draws at each wave boundary) or [`PolicyWeights::greedy`] (no noise).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyWeights {
    actor: Mlp,
    obs_norm: RunningNorm,
    sigma: Option<f64>,
}

impl PolicyWeights {
    /// The parameter-noise scale σ carried by this snapshot, if the agent
    /// explores in parameter space.
    #[must_use]
    pub fn sigma(&self) -> Option<f64> {
        self.sigma
    }

    /// The frozen actor network.
    #[must_use]
    pub fn actor(&self) -> &Mlp {
        &self.actor
    }

    /// An executable exploratory policy: a copy of the actor with one
    /// weight-space perturbation of scale σ drawn from `rng` (the same
    /// Gaussian perturbation [`Ddpg::resample_perturbation`] applies at a
    /// rollout boundary, drawn with the ziggurat sampler — this is the hot
    /// path of distributed rollout workers, which re-perturb at every wave).
    /// With no σ — greedy exploration — the actor is used as-is and `rng`
    /// is not consumed.
    #[must_use]
    pub fn perturbed<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> FrozenPolicy {
        let mut actor = self.actor.clone();
        if let Some(sigma) = self.sigma {
            actor.add_parameter_noise_fast(sigma, rng);
        }
        FrozenPolicy {
            actor,
            obs_norm: self.obs_norm.clone(),
            norm_buf: Vec::new(),
        }
    }

    /// The greedy (noise-free) executable policy for these weights.
    #[must_use]
    pub fn greedy(&self) -> FrozenPolicy {
        FrozenPolicy {
            actor: self.actor.clone(),
            obs_norm: self.obs_norm.clone(),
            norm_buf: Vec::new(),
        }
    }
}

/// An immutable executable policy derived from a [`PolicyWeights`]
/// snapshot: states pass through the frozen observation normaliser and one
/// (possibly noise-perturbed) actor forward. Unlike
/// [`Ddpg::act_exploratory_batch`] it keeps **no** clocks, recent-state
/// window, or RNG — acting on a `FrozenPolicy` is a pure function of the
/// snapshot, which is what makes distributed rollout waves replayable.
#[derive(Debug, Clone)]
pub struct FrozenPolicy {
    actor: Mlp,
    obs_norm: RunningNorm,
    /// Scratch for per-row normalisation; never read across calls.
    norm_buf: Vec<f64>,
}

impl FrozenPolicy {
    /// Actions for a batch of lane states (row `i` of `states` is lane
    /// `i`'s state, row `i` of the result its action distribution), through
    /// one batched actor forward.
    ///
    /// # Panics
    ///
    /// Panics if `states` has no rows or a column count other than the
    /// normaliser's dimension.
    #[must_use]
    pub fn act_batch(&mut self, states: &Matrix) -> Matrix {
        assert!(states.rows() > 0, "need at least one lane");
        assert_eq!(
            states.cols(),
            self.obs_norm.dim(),
            "state dimension mismatch"
        );
        let mut z = Matrix::zeros(states.rows(), states.cols());
        for r in 0..states.rows() {
            self.obs_norm
                .normalize_into(states.row(r), &mut self.norm_buf);
            z.row_mut(r).copy_from_slice(&self.norm_buf);
        }
        self.actor.forward(&z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(seed: u64) -> DdpgConfig {
        DdpgConfig::small_test(seed)
    }

    #[test]
    fn actions_are_distributions() {
        let agent = Ddpg::new(3, 4, config(0));
        let a = agent.act(&[1.0, 2.0, 3.0]);
        assert_eq!(a.len(), 4);
        assert!((a.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(a.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn exploratory_actions_stay_on_simplex() {
        let mut cfg = config(1);
        cfg.exploration = Exploration::ActionNoise {
            theta: 0.15,
            sigma: 0.4,
        };
        let mut agent = Ddpg::new(2, 3, cfg);
        for i in 0..50 {
            let a = agent.act_exploratory(&[i as f64, 0.0]);
            assert!((a.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(a.iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn unprojected_action_noise_leaves_simplex() {
        let mut cfg = config(2);
        cfg.exploration = Exploration::ActionNoise {
            theta: 0.15,
            sigma: 0.5,
        };
        let mut agent = Ddpg::new(2, 3, cfg);
        let mut violated = false;
        for i in 0..100 {
            let a = agent.act_exploratory_unprojected(&[i as f64, 1.0]);
            let sum: f64 = a.iter().sum();
            if (sum - 1.0).abs() > 1e-6 || a.iter().any(|&p| p < 0.0) {
                violated = true;
            }
        }
        assert!(violated, "raw action noise should violate the simplex");
    }

    #[test]
    fn param_noise_perturbs_policy() {
        let mut agent = Ddpg::new(2, 3, config(3));
        let s = [0.5, -0.5];
        let clean = agent.act(&s);
        let noisy = agent.act_exploratory(&s);
        let dist: f64 = clean.iter().zip(&noisy).map(|(a, b)| (a - b).abs()).sum();
        assert!(dist > 0.0, "perturbed actor should differ");
    }

    #[test]
    fn train_step_needs_enough_data() {
        let mut agent = Ddpg::new(2, 2, config(4));
        assert!(agent.train_step().is_none());
        for i in 0..8 {
            agent.observe(&[i as f64, 0.0], &[0.5, 0.5], 0.0, &[i as f64 + 1.0, 0.0]);
        }
        assert!(agent.train_step().is_some());
    }

    #[test]
    fn learns_reward_maximising_action_on_bandit() {
        // A stateless bandit: reward = a[0] (first dimension as large as
        // possible). DDPG should push the policy toward (1, 0).
        let mut cfg = config(5);
        cfg.actor_lr = 1e-2;
        cfg.critic_lr = 1e-2;
        let mut agent = Ddpg::new(1, 2, cfg);
        let s = [1.0];
        for _ in 0..1200 {
            let a = agent.act_exploratory(&s);
            let reward = a[0];
            agent.observe(&s, &a, reward, &s);
            agent.train_step();
        }
        let a = agent.act(&s);
        assert!(a[0] > 0.7, "policy did not concentrate: {a:?}");
    }

    #[test]
    fn critic_converges_on_fixed_targets() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut critic = Critic::new(2, 2, &[16, 16], &mut rng);
        let mut t_opt = Adam::new(1e-2);
        let mut h_opt = Adam::new(1e-2);
        let s = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let a = Matrix::from_rows(&[&[0.3, 0.7], &[0.9, 0.1]]);
        let y = Matrix::from_rows(&[&[2.0], &[-1.0]]);
        let mut loss = f64::INFINITY;
        for _ in 0..500 {
            loss = critic.train(&s, &a, &y, &mut t_opt, &mut h_opt);
        }
        assert!(loss < 1e-2, "loss {loss}");
    }

    #[test]
    fn critic_action_gradient_matches_finite_diff() {
        let mut rng = SmallRng::seed_from_u64(7);
        let critic = Critic::new(2, 3, &[8, 8], &mut rng);
        let s = Matrix::from_rows(&[&[0.4, -0.2]]);
        let a = Matrix::from_rows(&[&[0.2, 0.5, 0.3]]);
        let grad = critic.action_gradient(&s, &a);
        let eps = 1e-6;
        for c in 0..3 {
            let mut ap = a.clone();
            let mut am = a.clone();
            ap.set(0, c, a.get(0, c) + eps);
            am.set(0, c, a.get(0, c) - eps);
            let numeric = (critic.q(&s, &ap).get(0, 0) - critic.q(&s, &am).get(0, 0)) / (2.0 * eps);
            assert!((numeric - grad.get(0, c)).abs() < 1e-5, "dim {c}");
        }
    }

    #[test]
    fn target_networks_track_online_networks() {
        let mut agent = Ddpg::new(2, 2, config(8));
        for i in 0..16 {
            agent.observe(&[i as f64, 0.0], &[0.5, 0.5], 1.0, &[i as f64, 1.0]);
        }
        let before = agent.actor_target.flat_params();
        for _ in 0..20 {
            agent.train_step();
        }
        let after = agent.actor_target.flat_params();
        assert_ne!(before, after, "target should move");
    }

    #[test]
    fn sigma_adapts_over_time() {
        let mut agent = Ddpg::new(2, 2, config(9));
        let initial = agent.param_noise_sigma().unwrap();
        for i in 0..100 {
            let _ = agent.act_exploratory(&[i as f64 * 0.01, 0.0]);
        }
        let later = agent.param_noise_sigma().unwrap();
        assert_ne!(initial, later, "sigma should adapt");
    }

    #[test]
    fn entropy_bonus_resists_vertex_collapse() {
        // An adversarial critic signal that always favours dimension 0 drives
        // an unregularised softmax actor to the one-hot vertex; with the
        // entropy bonus it stays strictly inside the simplex.
        let train = |beta: f64| {
            let mut cfg = config(11);
            cfg.entropy_weight = beta;
            cfg.actor_lr = 1e-2;
            cfg.critic_lr = 1e-2;
            let mut agent = Ddpg::new(1, 3, cfg);
            let s = [1.0];
            for _ in 0..800 {
                let a = agent.act_exploratory(&s);
                // Reward grows with a[0] without bound preference elsewhere.
                agent.observe(&s, &a, 5.0 * a[0], &s);
                agent.train_step();
            }
            agent.act(&s)
        };
        let collapsed = train(0.0);
        let regularised = train(1.0);
        let min_collapsed = collapsed.iter().cloned().fold(f64::INFINITY, f64::min);
        let min_regularised = regularised.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            min_regularised > min_collapsed,
            "entropy should keep mass on all dimensions: {collapsed:?} vs {regularised:?}"
        );
        assert!(min_regularised > 1e-3, "{regularised:?}");
    }

    #[test]
    fn observation_normalizer_feeds_from_observe() {
        let mut agent = Ddpg::new(2, 2, config(12));
        assert_eq!(agent.obs_normalizer().count(), 0);
        agent.observe(&[1.0, 2.0], &[0.5, 0.5], 0.0, &[1.0, 2.0]);
        agent.observe_state(&[3.0, 4.0]);
        assert_eq!(agent.obs_normalizer().count(), 2);
    }

    #[test]
    fn twin_critic_trains_and_converges_toward_true_value() {
        // Constant reward 1 with γ = 0.9: the true Q is 10 everywhere.
        // Both variants must converge near it; the twin (clipped double-Q)
        // estimate must not exceed the single-critic estimate at the same
        // training step count.
        let run = |twin: bool| {
            let mut cfg = config(13);
            cfg.twin_critic = twin;
            let mut agent = Ddpg::new(2, 2, cfg);
            // A 32-state ring with constant reward: every next state is
            // itself an observed state, so the observation normaliser covers
            // the whole bootstrap domain.
            for i in 0..32u32 {
                let s = [f64::from(i), f64::from(i % 4)];
                let next = [f64::from((i + 1) % 32), f64::from((i + 1) % 4)];
                agent.observe(&s, &[0.5, 0.5], 1.0, &next);
            }
            let mut last = None;
            for _ in 0..400 {
                last = agent.train_step();
            }
            last.unwrap().mean_q
        };
        let q_single = run(false);
        let q_twin = run(true);
        assert!((q_single - 10.0).abs() < 3.0, "single Q {q_single}");
        assert!((q_twin - 10.0).abs() < 3.0, "twin Q {q_twin}");
        assert!(
            q_twin <= q_single + 0.5,
            "twin Q {q_twin} vs single Q {q_single}"
        );
    }

    #[test]
    fn snapshot_resume_is_bit_identical() {
        let drive = |agent: &mut Ddpg, start: usize, steps: usize| {
            let mut outs = Vec::new();
            for i in start..start + steps {
                let s = [i as f64 * 0.1, 1.0];
                let a = agent.act_exploratory(&s);
                agent.observe(&s, &a, a[0], &s);
                let stats = agent.train_step();
                outs.push((a, stats));
            }
            outs
        };
        let mut uninterrupted = Ddpg::new(2, 2, config(21));
        let mut resumed = Ddpg::new(2, 2, config(21));
        drive(&mut uninterrupted, 0, 25);
        drive(&mut resumed, 0, 25);
        // Round-trip through JSON mid-run.
        let json = serde_json::to_string(&resumed.snapshot()).unwrap();
        let mut resumed = Ddpg::from_snapshot(serde_json::from_str(&json).unwrap());
        let a = drive(&mut uninterrupted, 25, 25);
        let b = drive(&mut resumed, 25, 25);
        assert_eq!(a, b);
        assert_eq!(uninterrupted.snapshot(), resumed.snapshot());
    }

    #[test]
    fn health_trips_on_non_finite_loss() {
        let mut health = TrainHealth::new(0.99, 1e4, 0);
        let bad = TrainStats {
            critic_loss: f64::NAN,
            mean_q: 0.0,
        };
        match health.check(7, &bad) {
            Err(TrainError::NonFiniteLoss { step: 7, .. }) => {}
            other => panic!("expected NonFiniteLoss, got {other:?}"),
        }
    }

    #[test]
    fn health_trips_on_blowup_after_warmup_only() {
        let mut health = TrainHealth::new(0.99, 100.0, 5);
        let normal = TrainStats {
            critic_loss: 1.0,
            mean_q: 0.0,
        };
        let spike = TrainStats {
            critic_loss: 1e6,
            mean_q: 0.0,
        };
        // During warm-up even a huge finite spike passes.
        health.check(0, &normal).unwrap();
        health.check(1, &spike).unwrap();
        health.reset();
        for i in 0..5 {
            health.check(i, &normal).unwrap();
        }
        match health.check(5, &spike) {
            Err(TrainError::CriticBlowup { .. }) => {}
            other => panic!("expected CriticBlowup, got {other:?}"),
        }
    }

    #[test]
    fn poisoned_replay_trips_watchdog_via_try_train_step() {
        let mut agent = Ddpg::new(2, 2, config(22));
        for i in 0..8 {
            let s = [i as f64, 0.0];
            agent.observe(&s, &[0.5, 0.5], 0.0, &s);
        }
        // Inject a NaN batch the validated path would have rejected.
        for _ in 0..8 {
            agent.replay_mut().push_unchecked(StoredTransition {
                state: vec![0.0, 0.0],
                action: vec![0.5, 0.5],
                reward: f64::NAN,
                next_state: vec![0.0, 0.0],
            });
        }
        let mut health = TrainHealth::new(0.99, 1e4, 0);
        let mut tripped = false;
        for _ in 0..50 {
            if agent.try_train_step(&mut health).is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "NaN batch must trip the watchdog");
    }

    #[test]
    fn recovery_helpers_halve_sigma_and_reseed() {
        let mut agent = Ddpg::new(2, 2, config(23));
        let sigma = agent.param_noise_sigma().unwrap();
        agent.halve_param_noise();
        assert!((agent.param_noise_sigma().unwrap() - sigma / 2.0).abs() < 1e-15);
        // Reseeding with the same seed gives identical subsequent streams.
        let mut twin = agent.clone();
        agent.reseed(99);
        twin.reseed(99);
        let s = [0.3, 0.7];
        assert_eq!(agent.act_exploratory(&s), twin.act_exploratory(&s));
    }

    #[test]
    fn observe_rejects_non_finite_and_counts() {
        use telemetry::{JsonlSink, Recorder, Telemetry};
        let sink = JsonlSink::in_memory();
        let mut agent = Ddpg::new(2, 2, config(24));
        agent.set_telemetry(Telemetry::new(sink.clone()));
        agent.observe(&[0.0, 0.0], &[0.5, 0.5], f64::NAN, &[1.0, 1.0]);
        assert_eq!(agent.replay_len(), 0);
        assert_eq!(agent.obs_normalizer().count(), 0);
        agent.observe(&[0.0, 0.0], &[0.5, 0.5], 1.0, &[1.0, 1.0]);
        assert_eq!(agent.replay_len(), 1);
        Recorder::flush(&*sink);
        let text = String::from_utf8(sink.take_output()).unwrap();
        assert!(text.contains("replay.rejected_nonfinite"));
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let run = |seed| {
            let mut agent = Ddpg::new(2, 2, config(seed));
            let mut outs = Vec::new();
            for i in 0..30 {
                let s = [i as f64 * 0.1, 1.0];
                let a = agent.act_exploratory(&s);
                agent.observe(&s, &a, a[0], &s);
                agent.train_step();
                outs.push(a);
            }
            outs
        };
        assert_eq!(run(42), run(42));
    }

    /// The greedy frozen policy reproduces [`Ddpg::act`] bit for bit, row
    /// by row — it is the same normaliser and actor, just detached.
    #[test]
    fn frozen_greedy_policy_matches_act() {
        let mut agent = Ddpg::new(2, 3, config(50));
        for i in 0..20 {
            let s = [i as f64 * 0.3, 1.0];
            let a = agent.act_exploratory(&s);
            agent.observe(&s, &a, a[0], &s);
        }
        let mut frozen = agent.policy_weights().greedy();
        let rows: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64, 0.5]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let batch = frozen.act_batch(&Matrix::from_rows(&refs));
        for (i, s) in rows.iter().enumerate() {
            let expected = agent.act(s);
            assert_eq!(expected.as_slice(), batch.row(i), "row {i}");
        }
    }

    /// Perturbing frozen weights is a pure function of the RNG state: two
    /// perturbations from identically seeded streams act identically, a
    /// different stream acts differently.
    #[test]
    fn frozen_perturbation_is_deterministic_in_the_rng() {
        let agent = Ddpg::new(2, 3, config(51));
        let weights = agent.policy_weights();
        assert!(weights.sigma().is_some());
        let s = Matrix::from_rows(&[&[0.4, 0.6], &[5.0, 1.0]]);
        let mut a = weights
            .perturbed(&mut SmallRng::seed_from_u64(9))
            .act_batch(&s);
        let b = weights
            .perturbed(&mut SmallRng::seed_from_u64(9))
            .act_batch(&s);
        assert_eq!(a.as_slice(), b.as_slice());
        let c = weights
            .perturbed(&mut SmallRng::seed_from_u64(10))
            .act_batch(&s);
        assert_ne!(a.as_slice(), c.as_slice());
        // The perturbation never leaks back into the snapshot.
        a = weights.greedy().act_batch(&s);
        let d = agent.policy_weights().greedy().act_batch(&s);
        assert_eq!(a.as_slice(), d.as_slice());
    }

    /// Trains a `batch_size = 64` agent for 30 steps and returns its
    /// serialized snapshot.
    fn trained_snapshot_json() -> String {
        let mut cfg = config(41);
        cfg.batch_size = 64;
        let mut agent = Ddpg::new(3, 3, cfg);
        for i in 0..96 {
            let s = [i as f64 * 0.1, (i % 7) as f64, 1.0];
            let a = agent.act_exploratory(&s);
            agent.observe(&s, &a, a[0] - a[2], &[s[1], s[0], 0.5]);
        }
        for _ in 0..30 {
            assert!(agent.train_step().is_some());
        }
        serde_json::to_string(&agent.snapshot()).unwrap()
    }

    /// Training is bit-identical at any `NN_NUM_THREADS`: the serial run
    /// and a run with the configured thread budget serialize alike.
    #[test]
    fn training_is_independent_of_thread_count() {
        let serial = nn::threads::with_serial(trained_snapshot_json);
        let threaded = trained_snapshot_json();
        assert!(serial == threaded, "snapshots differ between thread counts");
    }
}
