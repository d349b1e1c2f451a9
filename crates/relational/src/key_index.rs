//! The key index: the rows holding each value of a table's key column.
//!
//! Derived state of a [`Table`](crate::Table): it is never compared,
//! cloned, persisted or logged, and it is rebuilt from the rows whenever a
//! table declares its key ([`Table::index_key`](crate::Table::index_key)).

use crate::value::Value;

/// A slot holding no row.
const EMPTY: usize = usize::MAX;

/// Maps each id of an `INTEGER` key column to the rows holding it.  `NULL`
/// cells are not indexed.
///
/// An open-addressing hash table with linear probing, kept at most half
/// full.  A slot stores only a row position — the id is read from the row
/// itself — so the index costs one word per slot, repeated ids need no
/// side storage, and building it writes a table small enough to stay in
/// cache.  Every method that reads ids takes the table's rows, which must
/// hold, at every indexed position, the id that row was indexed under.
#[derive(Debug)]
pub(crate) struct KeyIndex {
    column: usize,
    /// Row positions or [`EMPTY`]; the length is a power of two.
    slots: Vec<usize>,
    /// Occupied slots.
    len: usize,
}

impl KeyIndex {
    /// Indexes `column` of `rows`, sizing the table for every row up front.
    pub(crate) fn build(column: usize, rows: &[Vec<Value>]) -> KeyIndex {
        let mut index = KeyIndex {
            column,
            slots: vec![EMPTY; (2 * rows.len()).max(8).next_power_of_two()],
            len: 0,
        };
        for (row, cells) in rows.iter().enumerate() {
            if let Value::Integer(id) = cells[column] {
                index.place(id, row);
            }
        }
        index
    }

    /// The indexed column's position in the schema.
    pub(crate) fn column(&self) -> usize {
        self.column
    }

    /// The rows holding `id`, ascending (none when no row does).
    pub(crate) fn rows(&self, rows: &[Vec<Value>], id: i64) -> KeyRows {
        let mut found = self
            .probe(id)
            .filter(|&at| self.id_at(rows, at) == id)
            .map(|at| self.slots[at]);
        let first = found.next();
        let Some(second) = found.next() else {
            return KeyRows {
                first,
                rest: Vec::new().into_iter(),
            };
        };
        let mut all: Vec<usize> = first.into_iter().chain([second]).chain(found).collect();
        all.sort_unstable();
        KeyRows {
            first: None,
            rest: all.into_iter(),
        }
    }

    /// Records that `row` holds `value`.  `rows` need not contain `row`
    /// yet: only the rows already indexed are read.
    pub(crate) fn insert(&mut self, rows: &[Vec<Value>], value: &Value, row: usize) {
        let Value::Integer(id) = *value else { return };
        if 2 * (self.len + 1) > self.slots.len() {
            let grown = vec![EMPTY; 2 * self.slots.len()];
            let old = std::mem::replace(&mut self.slots, grown);
            self.len = 0;
            for indexed in old.into_iter().filter(|&slot| slot != EMPTY) {
                self.place(id_of(&rows[indexed][self.column]), indexed);
            }
        }
        self.place(id, row);
    }

    /// Forgets that `row` holds `value`.
    pub(crate) fn remove(&mut self, rows: &[Vec<Value>], value: &Value, row: usize) {
        let Value::Integer(id) = *value else { return };
        let Some(mut hole) = self.find(id, row) else {
            return;
        };
        self.len -= 1;
        // Backward-shift deletion: a later entry of the run whose probe
        // path crosses the hole moves into it, so no lookup stops early at
        // an empty slot.
        let mask = self.slots.len() - 1;
        let mut at = hole;
        loop {
            at = (at + 1) & mask;
            if self.slots[at] == EMPTY {
                break;
            }
            let home = self.home(self.id_at(rows, at));
            if at.wrapping_sub(home) & mask >= at.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[at];
                hole = at;
            }
        }
        self.slots[hole] = EMPTY;
    }

    /// Moves `value`'s entry for row `from` to row `to`.
    pub(crate) fn renumber(&mut self, value: &Value, from: usize, to: usize) {
        let Value::Integer(id) = *value else { return };
        if let Some(at) = self.find(id, from) {
            self.slots[at] = to;
        }
    }

    /// Stores `row` under `id` in the first free slot of its probe path.
    fn place(&mut self, id: i64, row: usize) {
        let mask = self.slots.len() - 1;
        let mut at = self.home(id);
        while self.slots[at] != EMPTY {
            at = (at + 1) & mask;
        }
        self.slots[at] = row;
        self.len += 1;
    }

    /// The slot holding `row` on `id`'s probe path.
    fn find(&self, id: i64, row: usize) -> Option<usize> {
        self.probe(id).find(|&at| self.slots[at] == row)
    }

    /// The occupied slots from `id`'s home slot up to the first empty one.
    fn probe(&self, id: i64) -> impl Iterator<Item = usize> + '_ {
        let mask = self.slots.len() - 1;
        let mut at = self.home(id);
        std::iter::from_fn(move || {
            let here = at;
            at = (at + 1) & mask;
            (self.slots[here] != EMPTY).then_some(here)
        })
    }

    /// The id of the row in occupied slot `at`.
    fn id_at(&self, rows: &[Vec<Value>], at: usize) -> i64 {
        id_of(&rows[self.slots[at]][self.column])
    }

    /// `id`'s home slot, through the MurmurHash3 64-bit finalizer: it
    /// spreads ids sharing their low bits — as every id routed to one hash
    /// partition does — over the whole table.
    fn home(&self, id: i64) -> usize {
        let mut h = id as u64;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^= h >> 33;
        h as usize & (self.slots.len() - 1)
    }
}

/// The rows holding one id, in ascending order
/// ([`Table::rows_with_key`](crate::Table::rows_with_key)).  Ids are
/// keys, so one row is the common case, and it needs no allocation;
/// several rows are sorted in a vector.
#[derive(Debug)]
pub struct KeyRows {
    /// The only row, when exactly one holds the id.
    first: Option<usize>,
    /// Every row, when several do.
    rest: std::vec::IntoIter<usize>,
}

impl Iterator for KeyRows {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        self.first.take().or_else(|| self.rest.next())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = usize::from(self.first.is_some()) + self.rest.len();
        (len, Some(len))
    }
}

impl ExactSizeIterator for KeyRows {}

/// The id in an indexed cell.
fn id_of(cell: &Value) -> i64 {
    match *cell {
        Value::Integer(id) => id,
        ref other => unreachable!("an indexed row holds the non-integer id {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn found(index: &KeyIndex, rows: &[Vec<Value>], id: i64) -> Vec<usize> {
        let found = index.rows(rows, id);
        let len = found.len();
        let found: Vec<usize> = found.collect();
        assert_eq!(found.len(), len);
        found
    }

    fn cells(ids: &[Option<i64>]) -> Vec<Vec<Value>> {
        ids.iter()
            .map(|id| vec![id.map_or(Value::Null, Value::Integer)])
            .collect()
    }

    #[test]
    fn ids_map_to_their_rows_in_ascending_order() {
        let mut rows = cells(&[Some(7), None, Some(-3), Some(7), Some(1 << 40)]);
        let mut index = KeyIndex::build(0, &rows);
        assert_eq!(found(&index, &rows, 7), [0, 3]);
        assert_eq!(found(&index, &rows, -3), [2]);
        assert_eq!(found(&index, &rows, 1 << 40), [4]);
        assert!(found(&index, &rows, 0).is_empty());
        assert!(matches!(
            index.rows(&rows, -3),
            KeyRows { first: Some(2), .. }
        ));

        // Row 2 moves from id -3 onto id 7.
        index.remove(&rows, &Value::Integer(-3), 2);
        index.insert(&rows, &Value::Integer(7), 2);
        rows[2][0] = Value::Integer(7);
        assert_eq!(found(&index, &rows, 7), [0, 2, 3]);
        assert!(found(&index, &rows, -3).is_empty());

        // NULL cells and rows not indexed under the id are ignored.
        index.insert(&rows, &Value::Null, 1);
        index.remove(&rows, &Value::Integer(7), 1);
        assert_eq!(found(&index, &rows, 7), [0, 2, 3]);
    }

    #[test]
    fn lookups_survive_growth_collisions_and_removals() {
        // Multiples of 1024 share their low bits, and every third id
        // repeats the one before it.  Inserting one row at a time grows
        // the table from its smallest size.
        let mut rows = cells(&[]);
        let mut index = KeyIndex::build(0, &rows);
        for i in 0..300i64 {
            let cell = Value::Integer((i - i / 3) * 1024);
            index.insert(&rows, &cell, rows.len());
            rows.push(vec![cell]);
        }
        assert!(index.slots.len() >= 2 * index.len);
        // Drop every fourth row from the index, then move row 1 to 0.
        let mut indexed: Vec<usize> = (0..rows.len()).filter(|row| row % 4 != 0).collect();
        for row in (0..rows.len()).step_by(4) {
            index.remove(&rows, &rows[row][0].clone(), row);
        }
        index.renumber(&rows[1][0].clone(), 1, 0);
        rows.swap(0, 1);
        indexed[0] = 0;
        for i in 0..300i64 {
            let id = (i - i / 3) * 1024;
            let want: Vec<usize> = indexed
                .iter()
                .copied()
                .filter(|&row| rows[row][0] == Value::Integer(id))
                .collect();
            assert_eq!(found(&index, &rows, id), want, "id {id}");
        }
    }
}
