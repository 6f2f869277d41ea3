//! Buffer records (composite events).
//!
//! §4.2 of the paper: *"Each buffer contains a number of records, each of
//! which has three parts: a vector of event pointers, a start time and an end
//! time."* A [`Record`] is exactly that. Leaf records hold one pointer;
//! internal records hold one [`Slot`] per pattern class covered by the
//! operator's subtree, in pattern order:
//!
//! * [`Slot::One`] — the usual case, one constituent primitive event,
//! * [`Slot::Many`] — a Kleene-closure group produced by KSEQ,
//! * [`Slot::None`] — the `(NULL, Rr)` rows emitted by NSEQ when no negation
//!   instance negates `Rr` (Algorithm 2, steps 5/10).

use std::fmt;
use std::sync::Arc;

use crate::time::Ts;
use crate::EventRef;

/// One pattern-class position inside a [`Record`].
#[derive(Debug, Clone)]
pub enum Slot {
    /// No event bound at this position (negation classes).
    None,
    /// A single primitive event.
    One(EventRef),
    /// A Kleene-closure group of successive primitive events.
    Many(Arc<[EventRef]>),
}

impl Slot {
    /// The single event in this slot, if it is `One`.
    #[inline]
    pub fn as_one(&self) -> Option<&EventRef> {
        match self {
            Slot::One(e) => Some(e),
            _ => None,
        }
    }

    /// All events contained in this slot in arrival order.
    pub fn events(&self) -> &[EventRef] {
        match self {
            Slot::None => &[],
            Slot::One(e) => std::slice::from_ref(e),
            Slot::Many(es) => es,
        }
    }

    /// Earliest timestamp in this slot, if any event is bound.
    pub fn start_ts(&self) -> Option<Ts> {
        self.events().first().map(|e| e.ts())
    }

    /// Latest timestamp in this slot, if any event is bound.
    pub fn end_ts(&self) -> Option<Ts> {
        self.events().last().map(|e| e.ts())
    }

    /// Heap bytes of a closure group's event array (zero otherwise).
    fn spill(&self) -> usize {
        match self {
            Slot::Many(es) => es.len() * std::mem::size_of::<EventRef>(),
            _ => 0,
        }
    }
}

/// A buffer record: a vector of event slots plus a start and end timestamp.
///
/// Records are cheap to clone (slots hold `Arc`s) and are kept sorted by
/// `end_ts` in every buffer — the central invariant of §4.2. A one-slot
/// record (every leaf record) keeps its slot inline, so admitting an event
/// into a leaf buffer does not allocate; wider records box their slots.
#[derive(Debug, Clone)]
pub struct Record {
    slots: Slots,
    start: Ts,
    end: Ts,
}

/// Slot storage: one slot inline, or a boxed array of two or more. Every
/// constructor normalizes a one-slot array to the inline form.
#[derive(Debug, Clone)]
enum Slots {
    One(Slot),
    Many(Box<[Slot]>),
}

impl Slots {
    fn from_vec(mut slots: Vec<Slot>) -> Slots {
        if slots.len() == 1 {
            if let Some(slot) = slots.pop() {
                return Slots::One(slot);
            }
        }
        Slots::Many(slots.into_boxed_slice())
    }

    #[inline]
    fn as_slice(&self) -> &[Slot] {
        match self {
            Slots::One(s) => std::slice::from_ref(s),
            Slots::Many(s) => s,
        }
    }
}

// Buffers hold records by value; the inline slot must not bloat them.
const _: () = assert!(std::mem::size_of::<Record>() <= 40);

impl Record {
    /// A leaf record wrapping one primitive event (no heap allocation).
    pub fn primitive(event: EventRef) -> Record {
        let ts = event.ts();
        Record { slots: Slots::One(Slot::One(event)), start: ts, end: ts }
    }

    /// A record from explicit slots; `start`/`end` are computed from the
    /// bound events. Panics if no slot binds an event (an all-`None` record
    /// has no time span and is never produced by the operators).
    pub fn from_slots(slots: Vec<Slot>) -> Record {
        let start = slots
            .iter()
            .filter_map(Slot::start_ts)
            .min()
            .expect("record must bind at least one event");
        let end = slots
            .iter()
            .filter_map(Slot::end_ts)
            .max()
            .expect("record must bind at least one event");
        Record { slots: Slots::from_vec(slots), start, end }
    }

    /// A record from explicit slots and an explicit span. Used by NSEQ: the
    /// negating event is carried in a slot for predicate/guard evaluation
    /// but must not extend the composite's span (it is not part of the
    /// output, §4.4.2).
    pub fn from_slots_with_span(slots: Vec<Slot>, start: Ts, end: Ts) -> Record {
        debug_assert!(start <= end);
        Record { slots: Slots::from_vec(slots), start, end }
    }

    /// Combines two adjacent sub-records into one covering both class ranges
    /// (left classes first). The span is the union of the two spans.
    pub fn combine(left: &Record, right: &Record) -> Record {
        let (l, r) = (left.slots(), right.slots());
        let mut slots = Vec::with_capacity(l.len() + r.len());
        slots.extend_from_slice(l);
        slots.extend_from_slice(r);
        Record {
            slots: Slots::Many(slots.into_boxed_slice()),
            start: left.start.min(right.start),
            end: left.end.max(right.end),
        }
    }

    /// Prepends an unbound (negated) slot to `right`, as NSEQ's
    /// `insert (NULL, Rr)` does. The span is unchanged: a `None` slot carries
    /// no events.
    pub fn with_null_left(right: &Record) -> Record {
        let mut slots = Vec::with_capacity(1 + right.slots().len());
        slots.push(Slot::None);
        slots.extend_from_slice(right.slots());
        Record { slots: Slots::Many(slots.into_boxed_slice()), start: right.start, end: right.end }
    }

    /// Appends an unbound (negated) slot after `left` — the `B;!C` mirror
    /// case of NSEQ.
    pub fn with_null_right(left: &Record) -> Record {
        let mut slots = Vec::with_capacity(1 + left.slots().len());
        slots.extend_from_slice(left.slots());
        slots.push(Slot::None);
        Record { slots: Slots::Many(slots.into_boxed_slice()), start: left.start, end: left.end }
    }

    /// Start timestamp: earliest constituent primitive event (§3).
    #[inline]
    pub fn start_ts(&self) -> Ts {
        self.start
    }

    /// End timestamp: latest constituent primitive event (§3).
    #[inline]
    pub fn end_ts(&self) -> Ts {
        self.end
    }

    /// Slots in pattern order for the class range this record covers.
    #[inline]
    pub fn slots(&self) -> &[Slot] {
        self.slots.as_slice()
    }

    /// The slot at relative class position `i`.
    #[inline]
    pub fn slot(&self, i: usize) -> &Slot {
        &self.slots()[i]
    }

    /// True when the slots are stored inline (one-slot records), i.e. the
    /// record owns no slot array on the heap.
    pub fn is_inline(&self) -> bool {
        matches!(self.slots, Slots::One(_))
    }

    /// Total number of primitive events bound (closure groups count all).
    pub fn event_count(&self) -> usize {
        self.slots().iter().map(|s| s.events().len()).sum()
    }

    /// Approximate in-memory footprint in bytes, for the logical memory
    /// accounting of Tables 3/5: the record itself, its slot array when
    /// that lives on the heap, and closure spill. Shared primitive events
    /// are *not* counted; they are owned by leaves.
    pub fn footprint(&self) -> usize {
        let array = match &self.slots {
            Slots::One(_) => 0,
            Slots::Many(s) => s.len() * std::mem::size_of::<Slot>(),
        };
        std::mem::size_of::<Record>() + array + self.slots().iter().map(Slot::spill).sum::<usize>()
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}..{}](", self.start, self.end)?;
        for (i, s) in self.slots().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match s {
                Slot::None => write!(f, "NULL")?,
                Slot::One(e) => write!(f, "{}@{}", e.schema().name(), e.ts())?,
                Slot::Many(es) => write!(f, "x{}", es.len())?,
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::stock;

    #[test]
    fn primitive_record_spans_its_event() {
        let r = Record::primitive(stock(7, 1, "IBM", 1.0, 1));
        assert_eq!((r.start_ts(), r.end_ts()), (7, 7));
        assert_eq!(r.event_count(), 1);
    }

    #[test]
    fn combine_unions_spans_and_concats_slots() {
        let a = Record::primitive(stock(3, 1, "IBM", 1.0, 1));
        let b = Record::primitive(stock(9, 2, "Sun", 2.0, 1));
        let c = Record::combine(&a, &b);
        assert_eq!((c.start_ts(), c.end_ts()), (3, 9));
        assert_eq!(c.slots().len(), 2);
        // Conjunction may combine in either time order; span is still the union.
        let d = Record::combine(&b, &a);
        assert_eq!((d.start_ts(), d.end_ts()), (3, 9));
    }

    #[test]
    fn null_slots_do_not_affect_span() {
        let c = Record::primitive(stock(5, 1, "Oracle", 1.0, 1));
        let r = Record::with_null_left(&c);
        assert_eq!((r.start_ts(), r.end_ts()), (5, 5));
        assert!(matches!(r.slot(0), Slot::None));
        assert!(r.slot(1).as_one().is_some());

        let l = Record::with_null_right(&c);
        assert!(matches!(l.slot(1), Slot::None));
        assert_eq!(l.start_ts(), 5);
    }

    #[test]
    fn closure_slots_count_all_events() {
        let group: Arc<[EventRef]> =
            vec![stock(1, 1, "G", 1.0, 1), stock(2, 2, "G", 1.0, 1)].into();
        let r = Record::from_slots(vec![
            Slot::One(stock(0, 0, "A", 1.0, 1)),
            Slot::Many(group),
            Slot::One(stock(4, 3, "C", 1.0, 1)),
        ]);
        assert_eq!(r.event_count(), 4);
        assert_eq!((r.start_ts(), r.end_ts()), (0, 4));
    }

    #[test]
    fn one_slot_records_are_inline_whatever_the_constructor() {
        let e = stock(3, 1, "IBM", 1.0, 1);
        assert!(Record::primitive(e.clone()).is_inline());
        let from = Record::from_slots(vec![Slot::One(e.clone())]);
        assert!(from.is_inline());
        assert_eq!((from.start_ts(), from.end_ts()), (3, 3));
        let spanned = Record::from_slots_with_span(vec![Slot::One(e.clone())], 3, 3);
        assert!(spanned.is_inline());
        assert_eq!(spanned.slots().len(), 1);
        let pair = Record::combine(&from, &spanned);
        assert!(!pair.is_inline());
        assert_eq!(pair.slots().len(), 2);
    }

    #[test]
    fn footprint_charges_the_slot_array_only_when_boxed() {
        let size = std::mem::size_of::<Record>();
        let leaf = Record::primitive(stock(1, 1, "A", 1.0, 1));
        assert_eq!(leaf.footprint(), size);
        let pair = Record::combine(&leaf, &Record::primitive(stock(2, 2, "B", 1.0, 1)));
        assert_eq!(pair.footprint(), size + 2 * std::mem::size_of::<Slot>());
    }

    #[test]
    fn footprint_grows_with_closure_size() {
        let small = Record::primitive(stock(1, 1, "A", 1.0, 1));
        let many: Arc<[EventRef]> =
            (0..10).map(|i| stock(i, i as i64, "G", 1.0, 1)).collect::<Vec<_>>().into();
        let big = Record::from_slots(vec![Slot::Many(many)]);
        assert!(big.footprint() > small.footprint());
    }
}
