//! Fixed-width row grids: the shape of every result set.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Rows of one fixed width, stored row-major in a single buffer.
///
/// A query-driven expansion answers with whole columns — every item of the
/// domain, every cell beside its provenance — so a result holds thousands
/// of cells.  A grid keeps them in one allocation instead of one per row.
/// The row count is explicit, so a grid of width 0 (rows that project no
/// column) still knows how many rows it holds.
///
/// Reads mirror `Vec<Vec<T>>`: a row is a slice, `Debug` prints exactly
/// what the nested vector would print, and a grid equals a nested vector
/// holding the same rows.  The shape is an invariant: every row has
/// [`Grid::width`] cells, and appending a row of any other length panics.
#[derive(Clone)]
pub struct Grid<T> {
    cells: Vec<T>,
    width: usize,
    rows: usize,
}

impl<T> Grid<T> {
    /// An empty grid whose rows will hold `width` cells.
    pub fn new(width: usize) -> Self {
        Grid::with_capacity(width, 0)
    }

    /// An empty grid with room for `rows` rows of `width` cells.
    pub fn with_capacity(width: usize, rows: usize) -> Self {
        Grid {
            cells: Vec::with_capacity(width.saturating_mul(rows)),
            width,
            rows: 0,
        }
    }

    /// A grid of `rows` rows of `width` cells, taking `cells` row after
    /// row.
    ///
    /// # Panics
    ///
    /// If `cells` does not hold exactly `width × rows` cells.
    pub fn from_cells(width: usize, rows: usize, cells: Vec<T>) -> Self {
        assert_eq!(
            Some(cells.len()),
            width.checked_mul(rows),
            "{} cells for {rows} rows of width {width}",
            cells.len()
        );
        Grid { cells, width, rows }
    }

    /// A grid of `rows` rows of `width` copies of `cell`, for a writer
    /// that fills it column by column ([`Grid::column_mut`]).
    pub fn filled(width: usize, rows: usize, cell: T) -> Self
    where
        T: Clone,
    {
        Grid {
            cells: vec![cell; width.checked_mul(rows).expect("grid size overflows")],
            width,
            rows,
        }
    }

    /// Cells per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the grid holds no row.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Every cell, row after row.
    pub fn cells(&self) -> &[T] {
        &self.cells
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// If `row` does not yield exactly [`Grid::width`] cells.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = T>) {
        self.cells.extend(row);
        self.rows += 1;
        assert_eq!(
            self.cells.len(),
            self.rows * self.width,
            "a row of a width-{} grid has another length",
            self.width
        );
    }

    /// The first row.
    pub fn first(&self) -> Option<&[T]> {
        self.get(0)
    }

    /// The last row.
    pub fn last(&self) -> Option<&[T]> {
        self.rows.checked_sub(1).and_then(|last| self.get(last))
    }

    /// Row `row`, if the grid has it.
    pub fn get(&self, row: usize) -> Option<&[T]> {
        (row < self.rows).then(|| &self.cells[row * self.width..(row + 1) * self.width])
    }

    /// Row `row`, mutably, if the grid has it.
    pub fn get_mut(&mut self, row: usize) -> Option<&mut [T]> {
        (row < self.rows).then(|| &mut self.cells[row * self.width..(row + 1) * self.width])
    }

    /// The rows in order.
    pub fn iter(&self) -> Rows<'_, T> {
        Rows {
            cells: &self.cells,
            width: self.width,
            remaining: self.rows,
        }
    }

    /// The rows in order, mutably.
    pub fn iter_mut(&mut self) -> RowsMut<'_, T> {
        RowsMut {
            cells: &mut self.cells,
            width: self.width,
            remaining: self.rows,
        }
    }

    /// The cells of column `column`, top to bottom.
    ///
    /// # Panics
    ///
    /// If `column` is not below [`Grid::width`].
    pub fn column(&self, column: usize) -> impl ExactSizeIterator<Item = &T> {
        assert!(
            column < self.width,
            "column {column} of a width-{} grid",
            self.width
        );
        self.cells
            .chunks_exact(self.width)
            .map(move |row| &row[column])
    }

    /// The cells of column `column`, top to bottom, mutably.
    ///
    /// # Panics
    ///
    /// If `column` is not below [`Grid::width`].
    pub fn column_mut(&mut self, column: usize) -> impl ExactSizeIterator<Item = &mut T> {
        assert!(
            column < self.width,
            "column {column} of a width-{} grid",
            self.width
        );
        self.cells
            .chunks_exact_mut(self.width)
            .map(move |row| &mut row[column])
    }

    /// Sorts the rows by `key`, stably (rows with equal keys keep their
    /// order), as `Vec::sort_by_key` sorts a nested vector.
    pub fn sort_by_key<K: Ord>(&mut self, mut key: impl FnMut(&[T]) -> K) {
        let mut order: Vec<usize> = (0..self.rows).collect();
        order.sort_by_key(|&row| key(&self[row]));
        // Row `at` takes the row now at `order[at]`: walk each cycle of
        // the permutation, swapping rows into place.
        let mut placed = vec![false; self.rows];
        for start in 0..self.rows {
            if placed[start] {
                continue;
            }
            placed[start] = true;
            let mut at = start;
            while order[at] != start {
                let from = order[at];
                self.swap_rows(at, from);
                placed[from] = true;
                at = from;
            }
        }
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        let (low, high) = (a.min(b), a.max(b));
        let (head, tail) = self.cells.split_at_mut(high * self.width);
        head[low * self.width..(low + 1) * self.width].swap_with_slice(&mut tail[..self.width]);
    }
}

impl<T> Default for Grid<T> {
    fn default() -> Self {
        Grid::new(0)
    }
}

impl<T> Index<usize> for Grid<T> {
    type Output = [T];

    fn index(&self, row: usize) -> &[T] {
        self.get(row).unwrap_or_else(|| {
            panic!("row {row} of a grid with {} rows", self.rows);
        })
    }
}

impl<T> IndexMut<usize> for Grid<T> {
    fn index_mut(&mut self, row: usize) -> &mut [T] {
        let rows = self.rows;
        self.get_mut(row).unwrap_or_else(|| {
            panic!("row {row} of a grid with {rows} rows");
        })
    }
}

/// A grid of the given rows.
///
/// # Panics
///
/// If the rows differ in length.
impl<T> From<Vec<Vec<T>>> for Grid<T> {
    fn from(rows: Vec<Vec<T>>) -> Self {
        rows.into_iter().collect()
    }
}

/// A grid of the collected rows, as wide as the first.
///
/// # Panics
///
/// If the rows differ in length.
impl<T> FromIterator<Vec<T>> for Grid<T> {
    fn from_iter<I: IntoIterator<Item = Vec<T>>>(rows: I) -> Self {
        let mut rows = rows.into_iter().peekable();
        let width = rows.peek().map_or(0, Vec::len);
        let mut grid = Grid::with_capacity(width, rows.size_hint().0);
        rows.for_each(|row| grid.push_row(row));
        grid
    }
}

impl<'a, T> IntoIterator for &'a Grid<T> {
    type Item = &'a [T];
    type IntoIter = Rows<'a, T>;

    fn into_iter(self) -> Rows<'a, T> {
        self.iter()
    }
}

/// Prints the rows as a list of lists, exactly as `Vec<Vec<T>>` does.
impl<T: fmt::Debug> fmt::Debug for Grid<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Two grids are equal when they hold the same rows: empty grids are equal
/// whatever their widths, as empty nested vectors are.
impl<T: PartialEq> PartialEq for Grid<T> {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && (self.rows == 0 || self.width == other.width)
            && self.cells == other.cells
    }
}

impl<T: Eq> Eq for Grid<T> {}

/// A grid equals a list of rows — vectors, arrays or slices — holding the
/// same cells, as a nested vector would.
impl<T: PartialEq, R: AsRef<[T]>> PartialEq<[R]> for Grid<T> {
    fn eq(&self, other: &[R]) -> bool {
        self.rows == other.len() && self.iter().zip(other).all(|(a, b)| a == b.as_ref())
    }
}

impl<T: PartialEq, R: AsRef<[T]>> PartialEq<&[R]> for Grid<T> {
    fn eq(&self, other: &&[R]) -> bool {
        *self == **other
    }
}

impl<T: PartialEq, R: AsRef<[T]>> PartialEq<Vec<R>> for Grid<T> {
    fn eq(&self, other: &Vec<R>) -> bool {
        *self == **other
    }
}

impl<T: PartialEq, R: AsRef<[T]>, const N: usize> PartialEq<[R; N]> for Grid<T> {
    fn eq(&self, other: &[R; N]) -> bool {
        *self == other[..]
    }
}

/// The rows of a [`Grid`], in order.
#[derive(Debug, Clone)]
pub struct Rows<'a, T> {
    cells: &'a [T],
    width: usize,
    remaining: usize,
}

impl<'a, T> Iterator for Rows<'a, T> {
    type Item = &'a [T];

    fn next(&mut self) -> Option<&'a [T]> {
        self.remaining = self.remaining.checked_sub(1)?;
        let (row, rest) = self.cells.split_at(self.width);
        self.cells = rest;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<T> ExactSizeIterator for Rows<'_, T> {}

/// The rows of a [`Grid`], in order, mutably.
#[derive(Debug)]
pub struct RowsMut<'a, T> {
    cells: &'a mut [T],
    width: usize,
    remaining: usize,
}

impl<'a, T> Iterator for RowsMut<'a, T> {
    type Item = &'a mut [T];

    fn next(&mut self) -> Option<&'a mut [T]> {
        self.remaining = self.remaining.checked_sub(1)?;
        let (row, rest) = std::mem::take(&mut self.cells).split_at_mut(self.width);
        self.cells = rest;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<T> ExactSizeIterator for RowsMut<'_, T> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested() -> Vec<Vec<i32>> {
        vec![vec![3, 30], vec![1, 10], vec![2, 20], vec![1, 11]]
    }

    #[test]
    fn columns_read_and_write_top_to_bottom() {
        let mut grid = Grid::filled(2, 4, 0);
        assert_eq!(grid.column(1).len(), 4);
        for (cell, value) in grid.column_mut(1).zip(10..) {
            *cell = value;
        }
        for (cell, row) in grid.column_mut(0).zip(nested()) {
            *cell = row[0];
        }
        assert_eq!(grid, [[3, 10], [1, 11], [2, 12], [1, 13]]);
        assert_eq!(grid.column(0).copied().collect::<Vec<_>>(), [3, 1, 2, 1]);
        assert_eq!(Grid::from_cells(2, 2, vec![1, 2, 3, 4]), [[1, 2], [3, 4]]);
        assert_eq!(Grid::<i32>::from_cells(0, 3, vec![]).len(), 3);
        let empty: Grid<i32> = Grid::filled(3, 0, 7);
        assert_eq!(empty.column(2).len(), 0);
        assert_eq!(Grid::filled(0, 5, 7).len(), 5);
    }

    #[test]
    fn reads_match_the_nested_vector() {
        let rows = nested();
        let grid = Grid::from(rows.clone());
        assert_eq!(grid.width(), 2);
        assert_eq!(grid.len(), 4);
        assert_eq!(grid.first(), Some(&[3, 30][..]));
        assert_eq!(grid.last(), Some(&[1, 11][..]));
        assert_eq!(grid.get(4), None);
        assert_eq!(&grid[2], &[2, 20]);
        assert!(grid.iter().eq(rows.iter().map(Vec::as_slice)));
        assert_eq!(grid, rows);
        assert_eq!(grid, rows.as_slice());
        assert_eq!(format!("{grid:?}"), format!("{rows:?}"));
        assert_eq!(format!("{grid:#?}"), format!("{rows:#?}"));
    }

    #[test]
    fn width_zero_rows_are_counted() {
        let mut grid: Grid<i32> = Grid::new(0);
        grid.push_row([]);
        grid.push_row([]);
        assert_eq!(grid.len(), 2);
        assert_eq!(grid.iter().count(), 2);
        assert_eq!(grid, vec![vec![], vec![]]);
        assert_eq!(format!("{grid:?}"), "[[], []]");
        assert_ne!(grid, Grid::default());
    }

    #[test]
    fn empty_grids_are_equal_whatever_their_width() {
        assert_eq!(Grid::<i32>::new(3), Grid::default());
        assert_eq!(Grid::<i32>::new(3), Vec::<Vec<i32>>::new());
        assert_eq!(format!("{:?}", Grid::<i32>::new(3)), "[]");
    }

    #[test]
    fn sort_by_key_is_stable_over_rows() {
        let mut rows = nested();
        let mut grid = Grid::from(rows.clone());
        grid.sort_by_key(|row| row[0]);
        rows.sort_by_key(|row| row[0]);
        assert_eq!(grid, rows);
        assert_eq!(grid, [vec![1, 10], vec![1, 11], vec![2, 20], vec![3, 30]]);
    }

    #[test]
    fn sort_by_key_applies_every_permutation() {
        // Every permutation of five rows, each sorted back into order.
        let mut perm: Vec<i32> = (0..5).collect();
        let mut seen = 0;
        loop {
            let mut grid: Grid<i32> = perm.iter().map(|&k| vec![k, -k]).collect();
            grid.sort_by_key(|row| row[0]);
            let sorted: Grid<i32> = (0..5).map(|k| vec![k, -k]).collect();
            assert_eq!(grid, sorted, "from {perm:?}");
            seen += 1;
            // Next permutation in lexicographic order.
            let Some(i) = (0..4).rev().find(|&i| perm[i] < perm[i + 1]) else {
                break;
            };
            let j = (i + 1..5).rev().find(|&j| perm[j] > perm[i]).unwrap();
            perm.swap(i, j);
            perm[i + 1..].reverse();
        }
        assert_eq!(seen, 120);
    }

    #[test]
    fn rows_are_mutable_in_place() {
        let mut grid = Grid::from(nested());
        for row in grid.iter_mut() {
            row[1] += 1;
        }
        grid[0][0] = 9;
        assert_eq!(grid.first(), Some(&[9, 31][..]));
        assert_eq!(grid.cells(), &[9, 31, 1, 11, 2, 21, 1, 12]);
    }

    #[test]
    #[should_panic(expected = "another length")]
    fn a_ragged_row_panics() {
        let _ = Grid::from(vec![vec![1, 2], vec![3]]);
    }
}
