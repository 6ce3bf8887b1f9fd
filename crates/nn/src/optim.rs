//! The Adam optimizer (Kingma & Ba), as used by the paper with
//! learning rate 0.001.

use crate::param::Param;

/// Adam with bias-corrected first and second moments.
///
/// The hot path is [`Adam::begin_step`] + [`Adam::step_param`], which
/// visit parameters one at a time without materializing a list — moment
/// buffers are created lazily on the first step and reused in place
/// forever after, so steady-state updates never allocate. The
/// list-based [`Adam::step`] wraps the same machinery.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    /// Bias corrections `1 - βᵗ` of the step opened by `begin_step`.
    b1t: f32,
    b2t: f32,
    /// Per-parameter moment buffers, keyed by visit position (the
    /// caller must visit parameters in a stable order).
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Adam with the paper's learning rate and standard betas.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            b1t: 0.0,
            b2t: 0.0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Number of updates performed.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Open an update step: advances the step counter and fixes the
    /// bias corrections that every subsequent [`Adam::step_param`] call
    /// of this step uses.
    pub fn begin_step(&mut self) {
        self.t += 1;
        self.b1t = 1.0 - self.beta1.powi(self.t as i32);
        self.b2t = 1.0 - self.beta2.powi(self.t as i32);
    }

    /// Update one parameter from its accumulated gradient, then zero
    /// the gradient. `pi` is the parameter's position in the caller's
    /// stable visit order; on the first step each new position
    /// allocates its moment buffers, afterwards they are reused.
    ///
    /// # Panics
    ///
    /// Panics when `pi` skips ahead of the known parameter count or the
    /// parameter's size changed between steps.
    pub fn step_param(&mut self, pi: usize, p: &mut Param) {
        if pi == self.m.len() {
            self.m.push(vec![0.0; p.len()]); // alloc-ok: first step only
            self.v.push(vec![0.0; p.len()]); // alloc-ok: first step only
        }
        assert!(pi < self.m.len(), "parameter {pi} visited out of order");
        assert_eq!(self.m[pi].len(), p.len(), "parameter {pi} changed size");
        let (lr, beta1, beta2, eps, b1t, b2t) =
            (self.lr, self.beta1, self.beta2, self.eps, self.b1t, self.b2t);
        // One zipped sweep, so no element needs a bounds check and the
        // loop runs in SIMD lanes. Each element's expression is the
        // textbook update in its own operation order, and Rust fuses no
        // multiply-add, so every bit is the indexed loop's.
        let moments = self.m[pi].iter_mut().zip(self.v[pi].iter_mut());
        for ((m, v), (&g, value)) in moments.zip(p.grad.iter().zip(p.value.iter_mut())) {
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            let m_hat = *m / b1t;
            let v_hat = *v / b2t;
            *value -= lr * m_hat / (v_hat.sqrt() + eps);
        }
        p.zero_grad();
    }

    /// Apply one update to `params` from their accumulated gradients,
    /// then zero the gradients.
    ///
    /// # Panics
    ///
    /// Panics when the parameter list's shape changes between calls.
    pub fn step(&mut self, mut params: Vec<&mut Param>) {
        if !self.m.is_empty() {
            assert_eq!(self.m.len(), params.len(), "parameter list changed shape");
        }
        self.begin_step();
        for (pi, p) in params.iter_mut().enumerate() {
            self.step_param(pi, p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = (x - 3)² with Adam; must converge to 3.
    #[test]
    fn converges_on_quadratic() {
        let mut p = Param::zeros(1);
        let mut adam = Adam::new(0.1);
        for _ in 0..500 {
            p.grad[0] = 2.0 * (p.value[0] - 3.0);
            adam.step(vec![&mut p]);
        }
        assert!((p.value[0] - 3.0).abs() < 1e-2, "x = {}", p.value[0]);
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut p = Param::zeros(2);
        p.grad = vec![1.0, -1.0];
        let mut adam = Adam::new(0.01);
        adam.step(vec![&mut p]);
        assert!(p.grad.iter().all(|&g| g == 0.0));
        assert_eq!(adam.steps(), 1);
    }

    #[test]
    fn first_step_moves_by_about_lr() {
        // With bias correction, the first Adam step is ≈ lr · sign(g).
        let mut p = Param::zeros(1);
        p.grad[0] = 0.5;
        let mut adam = Adam::new(0.001);
        adam.step(vec![&mut p]);
        assert!((p.value[0] + 0.001).abs() < 1e-5, "x = {}", p.value[0]);
    }

    #[test]
    fn zero_gradient_keeps_values() {
        let mut p = Param::zeros(3);
        let before = p.value.clone();
        let mut adam = Adam::new(0.01);
        adam.step(vec![&mut p]);
        assert_eq!(p.value, before);
    }

    #[test]
    fn visitor_form_matches_list_form() {
        let mut pa = Param::zeros(2);
        let mut pb = Param::zeros(3);
        let mut qa = Param::zeros(2);
        let mut qb = Param::zeros(3);
        let mut list_adam = Adam::new(0.01);
        let mut visit_adam = Adam::new(0.01);
        for step in 0..5 {
            for (i, (p, q)) in [(&mut pa, &mut qa), (&mut pb, &mut qb)].into_iter().enumerate() {
                for (j, g) in p.grad.iter_mut().enumerate() {
                    *g = ((step * 7 + i * 3 + j) as f32 * 0.21).sin();
                }
                q.grad.copy_from_slice(&p.grad);
            }
            list_adam.step(vec![&mut pa, &mut pb]);
            visit_adam.begin_step();
            visit_adam.step_param(0, &mut qa);
            visit_adam.step_param(1, &mut qb);
        }
        assert_eq!(pa.value, qa.value);
        assert_eq!(pb.value, qb.value);
    }

    /// The update as an indexed loop, the form the zipped sweep replaced.
    fn indexed_step(adam: &mut Adam, pi: usize, p: &mut Param) {
        if pi == adam.m.len() {
            adam.m.push(vec![0.0; p.len()]);
            adam.v.push(vec![0.0; p.len()]);
        }
        let m = &mut adam.m[pi];
        let v = &mut adam.v[pi];
        for j in 0..p.len() {
            let g = p.grad[j];
            m[j] = adam.beta1 * m[j] + (1.0 - adam.beta1) * g;
            v[j] = adam.beta2 * v[j] + (1.0 - adam.beta2) * g * g;
            let m_hat = m[j] / adam.b1t;
            let v_hat = v[j] / adam.b2t;
            p.value[j] -= adam.lr * m_hat / (v_hat.sqrt() + adam.eps);
        }
        p.zero_grad();
    }

    /// Bits with every NaN read as one value.
    fn canon(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
    }

    #[test]
    fn sweep_matches_the_indexed_loop_bit_for_bit() {
        let mut rng = bf_stats::SeedRng::new(0xADA);
        // Lengths below, at and past a SIMD width, with a remainder.
        let lens = [1usize, 3, 4, 17, 64];
        let mut swept: Vec<Param> = lens.iter().map(|&n| Param::zeros(n)).collect();
        for p in &mut swept {
            p.value.iter_mut().for_each(|v| *v = rng.normal(0.0, 1.0) as f32);
        }
        let mut indexed = swept.clone();
        let (mut a, mut b) = (Adam::new(0.01), Adam::new(0.01));
        for step in 0..6 {
            for (p, q) in swept.iter_mut().zip(&mut indexed) {
                for (j, g) in p.grad.iter_mut().enumerate() {
                    // Mostly normal; zeros, NaNs and infinities too (a
                    // NaN or inf poisons its element's later steps).
                    *g = match (step * 7 + j) % 11 {
                        0 => 0.0,
                        1 => -0.0,
                        2 if step == 2 => f32::NAN,
                        3 if step == 4 => f32::INFINITY,
                        4 if step == 5 => f32::NEG_INFINITY,
                        _ => rng.normal(0.0, 1e-3 + step as f64) as f32,
                    };
                }
                q.grad.copy_from_slice(&p.grad);
            }
            a.begin_step();
            b.begin_step();
            for (pi, (p, q)) in swept.iter_mut().zip(&mut indexed).enumerate() {
                a.step_param(pi, p);
                indexed_step(&mut b, pi, q);
            }
            for (pi, (p, q)) in swept.iter().zip(&indexed).enumerate() {
                assert_eq!(canon(&p.value), canon(&q.value), "step {step}, param {pi}: values");
                assert_eq!(canon(&a.m[pi]), canon(&b.m[pi]), "step {step}, param {pi}: m");
                assert_eq!(canon(&a.v[pi]), canon(&b.v[pi]), "step {step}, param {pi}: v");
                assert!(p.grad.iter().all(|g| g.to_bits() == 0), "step {step}: grad zeroed");
            }
        }
        assert!(swept.iter().any(|p| p.value.iter().any(|v| v.is_nan())), "a NaN reached a value");
    }

    #[test]
    #[should_panic(expected = "changed shape")]
    fn changing_param_list_panics() {
        let mut a = Param::zeros(1);
        let mut b = Param::zeros(1);
        let mut adam = Adam::new(0.01);
        adam.step(vec![&mut a]);
        adam.step(vec![&mut a, &mut b]);
    }
}
