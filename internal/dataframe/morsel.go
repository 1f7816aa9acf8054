package dataframe

// Morsel-driven scan units. A morsel is a fixed-size contiguous row range of
// one table — the granularity at which the query engine runs its scans: each
// full-table pass walks the table morsel by morsel, checking cancellation and
// bumping scan counters at every boundary. Column accessors serve a morsel
// zero-copy: the bulk slices (FloatData, IntData, StrData, BoolData,
// ValidData) subslice to [lo:hi] without copying, so a morsel is pure
// bookkeeping.

// DefaultMorselRows is the default morsel size. Large enough that per-morsel
// bookkeeping (a counter bump and a cancellation check) is noise, small enough
// that a scan over a large table observes cancellation promptly and a future
// delta-maintenance or mmap layer can work in morsel units.
const DefaultMorselRows = 4096
