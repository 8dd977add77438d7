//! Device topology: the 32×32 square qubit grid of §VI-B.
//!
//! Benchmarks are "mapped to a 32×32 square grid via SWAP-gate insertion".
//! This module provides the grid geometry (adjacency, distances, coupler
//! enumeration) consumed by the router and the crosstalk-aware scheduler.
//!
//! # Examples
//!
//! ```
//! use qcircuit::topology::Grid;
//!
//! let g = Grid::paper_grid(); // 32×32
//! assert_eq!(g.n_qubits(), 1024);
//! assert!(g.are_adjacent(0, 1));
//! assert_eq!(g.distance(0, 33), 2); // one row + one column
//! ```

/// A rectangular nearest-neighbour qubit grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid {
    rows: usize,
    cols: usize,
}

impl Grid {
    /// Creates an `rows × cols` grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0);
        Grid { rows, cols }
    }

    /// The paper's 32×32 evaluation grid.
    pub fn paper_grid() -> Self {
        Grid::new(32, 32)
    }

    /// Rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of physical qubits.
    pub fn n_qubits(&self) -> usize {
        self.rows * self.cols
    }

    /// `(row, col)` of a physical qubit.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn coords(&self, q: usize) -> (usize, usize) {
        assert!(q < self.n_qubits());
        (q / self.cols, q % self.cols)
    }

    /// Physical qubit at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn qubit_at(&self, row: usize, col: usize) -> usize {
        assert!(row < self.rows && col < self.cols);
        row * self.cols + col
    }

    /// Manhattan distance between two physical qubits.
    pub fn distance(&self, a: usize, b: usize) -> usize {
        let (ra, ca) = self.coords(a);
        let (rb, cb) = self.coords(b);
        ra.abs_diff(rb) + ca.abs_diff(cb)
    }

    /// Whether two physical qubits share a coupler.
    pub fn are_adjacent(&self, a: usize, b: usize) -> bool {
        self.distance(a, b) == 1
    }

    /// Neighbours of a physical qubit (2–4 of them).
    pub fn neighbors(&self, q: usize) -> Vec<usize> {
        self.neighbors_iter(q).collect()
    }

    /// Neighbours of a physical qubit without allocating, in the same
    /// order as [`Grid::neighbors`] (up, down, left, right) — what the
    /// router candidate loops and the scheduler's interference masks
    /// iterate. The order is part of the routed-output byte-identity
    /// contract: the greedy router draws one RNG tie-break value per
    /// candidate in this order.
    pub fn neighbors_iter(&self, q: usize) -> impl Iterator<Item = usize> {
        let (r, c) = self.coords(q);
        let mut buf = [0usize; 4];
        let mut len = 0;
        if r > 0 {
            buf[len] = q - self.cols;
            len += 1;
        }
        if r + 1 < self.rows {
            buf[len] = q + self.cols;
            len += 1;
        }
        if c > 0 {
            buf[len] = q - 1;
            len += 1;
        }
        if c + 1 < self.cols {
            buf[len] = q + 1;
            len += 1;
        }
        buf.into_iter().take(len)
    }

    /// All couplers as `(low, high)` pairs; a 32×32 grid has
    /// 2·32·31 = 1984 (the Fig 10b x-axis).
    pub fn couplers(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(2 * self.rows * self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                let q = self.qubit_at(r, c);
                if c + 1 < self.cols {
                    out.push((q, self.qubit_at(r, c + 1)));
                }
                if r + 1 < self.rows {
                    out.push((q, self.qubit_at(r + 1, c)));
                }
            }
        }
        out
    }

    /// A snake (boustrophedon) ordering of the grid: consecutive entries
    /// are always adjacent. Linear-chain circuits (Ising, QGAN) laid out
    /// along the snake need no routing at all.
    pub fn snake_order(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.n_qubits());
        for r in 0..self.rows {
            if r % 2 == 0 {
                for c in 0..self.cols {
                    out.push(self.qubit_at(r, c));
                }
            } else {
                for c in (0..self.cols).rev() {
                    out.push(self.qubit_at(r, c));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_dimensions() {
        let g = Grid::paper_grid();
        assert_eq!(g.n_qubits(), 1024);
        assert_eq!(g.rows(), 32);
        assert_eq!(g.couplers().len(), 1984);
    }

    #[test]
    fn coords_roundtrip() {
        let g = Grid::new(4, 5);
        for q in 0..20 {
            let (r, c) = g.coords(q);
            assert_eq!(g.qubit_at(r, c), q);
        }
    }

    #[test]
    fn adjacency_and_distance() {
        let g = Grid::new(4, 4);
        assert!(g.are_adjacent(0, 1));
        assert!(g.are_adjacent(0, 4));
        assert!(!g.are_adjacent(0, 5));
        assert_eq!(g.distance(0, 15), 6);
        assert_eq!(g.distance(5, 5), 0);
    }

    #[test]
    fn neighbors_at_corner_edge_center() {
        let g = Grid::new(3, 3);
        assert_eq!(g.neighbors(0).len(), 2);
        assert_eq!(g.neighbors(1).len(), 3);
        assert_eq!(g.neighbors(4).len(), 4);
    }

    #[test]
    fn snake_is_hamiltonian_path() {
        let g = Grid::new(5, 4);
        let snake = g.snake_order();
        assert_eq!(snake.len(), 20);
        for w in snake.windows(2) {
            assert!(g.are_adjacent(w[0], w[1]), "{} {} not adjacent", w[0], w[1]);
        }
        // Visits every qubit exactly once.
        let mut seen = vec![false; 20];
        for &q in &snake {
            assert!(!seen[q]);
            seen[q] = true;
        }
    }
}
