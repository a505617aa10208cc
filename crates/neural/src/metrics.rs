//! Classification evaluation metrics: confusion matrix and per-class
//! precision/recall — the reporting layer behind the accuracy columns of
//! Tables I/III/V.

/// A `classes × classes` confusion matrix (`rows = true`,
/// `cols = predicted`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    classes: usize,
    counts: Vec<usize>,
}

impl ConfusionMatrix {
    pub fn new(classes: usize) -> Self {
        Self {
            classes,
            counts: vec![0; classes * classes],
        }
    }

    /// Records one `(true, predicted)` observation.
    pub fn record(&mut self, truth: usize, predicted: usize) {
        assert!(truth < self.classes && predicted < self.classes);
        self.counts[truth * self.classes + predicted] += 1;
    }

    #[inline]
    pub fn count(&self, truth: usize, predicted: usize) -> usize {
        self.counts[truth * self.classes + predicted]
    }

    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        let correct: usize = (0..self.classes).map(|c| self.count(c, c)).sum();
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }

    /// Precision of one class (`NaN` when the class is never predicted).
    pub fn precision(&self, class: usize) -> f64 {
        let tp = self.count(class, class) as f64;
        let predicted: usize = (0..self.classes).map(|t| self.count(t, class)).sum();
        tp / predicted as f64
    }

    /// Recall of one class (`NaN` when the class never occurs).
    pub fn recall(&self, class: usize) -> f64 {
        let tp = self.count(class, class) as f64;
        let actual: usize = (0..self.classes).map(|p| self.count(class, p)).sum();
        tp / actual as f64
    }

    /// Compact text rendering.
    pub fn render(&self) -> String {
        let mut out = String::from("      ");
        for p in 0..self.classes {
            out.push_str(&format!("{p:>5}"));
        }
        out.push('\n');
        for t in 0..self.classes {
            out.push_str(&format!("  {t:>2} |"));
            for p in 0..self.classes {
                out.push_str(&format!("{:>5}", self.count(t, p)));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A matrix of parallel label/prediction slices.
    fn from_predictions(classes: usize, truths: &[usize], preds: &[usize]) -> ConfusionMatrix {
        let mut m = ConfusionMatrix::new(classes);
        for (&t, &p) in truths.iter().zip(preds) {
            m.record(t, p);
        }
        m
    }

    #[test]
    fn perfect_classifier() {
        let m = from_predictions(3, &[0, 1, 2, 1], &[0, 1, 2, 1]);
        assert_eq!(m.accuracy(), 1.0);
        assert_eq!(m.precision(1), 1.0);
        assert_eq!(m.recall(1), 1.0);
    }

    #[test]
    fn known_confusions() {
        // class 0 always predicted as 1
        let m = from_predictions(2, &[0, 0, 1, 1], &[1, 1, 1, 1]);
        assert_eq!(m.accuracy(), 0.5);
        assert_eq!(m.recall(0), 0.0);
        assert_eq!(m.recall(1), 1.0);
        assert_eq!(m.precision(1), 0.5);
        assert_eq!(m.total(), 4);
    }

    #[test]
    fn render_contains_counts() {
        let m = from_predictions(2, &[0, 1], &[0, 0]);
        let r = m.render();
        assert!(r.contains('1'));
        assert!(r.lines().count() >= 3);
    }

    #[test]
    #[should_panic]
    fn record_out_of_range() {
        let mut m = ConfusionMatrix::new(2);
        m.record(2, 0);
    }
}
