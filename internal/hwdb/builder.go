package hwdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"unsafe"
)

// RowBuilder lays rows out outside a table, packed as the rings keep them:
// runs of rows — a run being one table's rows, or one shape's — whose cells,
// strings, row views and headers are carved from four arrays, one of each
// kind, rather than allocated run by run. A builder is told first what it
// will hold and filled after:
//
//   - the telemetry hub copies a flush into one builder a pass at a time:
//     ReserveTail for each dirty table, in order, while the pass's byte
//     bound has room, then Tail for each;
//   - the shard protocol reads a whole batch off the wire into one: Reserve
//     the totals the batch declares, then ReadRows for each delta;
//   - a consumer that keeps rows lent to it copies them into one with Copy,
//     which reserves and fills in one call.
//
// When an array has no room for the rest of the reservation, it is
// replaced by one that has — allocated once, then, at the size the
// allocator rounds that to. Reset empties the builder for its next fill
// and keeps its arrays, so a builder filled again and again (a hub's drain
// passes, a client's batches) allocates only when a fill outgrows the last.
// The rows a builder hands out are valid until its next Reset: Reset
// zeroes what they view, and the next fill writes over it. Until then they
// are never written. The zero value is an empty builder; a RowBuilder is
// not safe for concurrent use.
type RowBuilder struct {
	want, used Room
	bytes      int // cell bytes reserved and not yet taken: packed rows and slack
	cells      arena[byte]
	strs       arena[string]
	rows       arena[Row]
	runs       arena[rowBlock]
}

// maxKeptArray is the size, in bytes, above which Reset drops an array
// instead of keeping it for the next fill — as maxPooledSet bounds a pooled
// select set — so that one large fill is not retained for good. The hub
// bounds its drain passes by it (ReserveTail), so that a home's first
// flush of its pre-filled rings reuses one set of arrays pass after pass
// instead of filling one array the size of every ring.
const maxKeptArray = 64 << 10

// arena is one of a builder's arrays: runs are carved from buf[off:].
type arena[E any] struct {
	buf []E
	off int
}

// carve cuts the next n elements off the arena. When fewer than rest of
// them are left (rest >= n, the remainder of the reservation), the arena
// is first replaced by a new array with room for all of rest — or for twice
// the old array, up to maxKeptArray, so that a builder filled delta by
// delta grows geometrically — stretched to the size the allocator hands out
// anyway.
func (a *arena[E]) carve(n, rest int) []E {
	if len(a.buf)-a.off < rest {
		var zero E
		grow := min(2*len(a.buf), maxKeptArray/int(unsafe.Sizeof(zero)))
		a.buf = slices.Grow([]E(nil), max(rest, grow))
		a.buf, a.off = a.buf[:cap(a.buf)], 0
	}
	s := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	return s
}

// reset empties the arena, zeroing what was carved so that nothing it held
// stays reachable through it, or drops the array if it is above
// maxKeptArray.
func (a *arena[E]) reset() {
	var zero E
	if uintptr(len(a.buf))*unsafe.Sizeof(zero) > maxKeptArray {
		a.buf = nil
	} else {
		clear(a.buf[:a.off])
	}
	a.off = 0
}

// Room counts what a RowBuilder holds: rows, their cells as the wire
// carries them (eight-byte words: a row's insert time and one per column),
// their strings (one per string column) and the runs they are grouped in.
type Room struct {
	Rows, Cells, Strs, Runs int
}

// Add returns r and o together.
func (r Room) Add(o Room) Room {
	return Room{r.Rows + o.Rows, r.Cells + o.Cells, r.Strs + o.Strs, r.Runs + o.Runs}
}

func (r Room) fits(in Room) bool {
	return r.Rows <= in.Rows && r.Cells <= in.Cells && r.Strs <= in.Strs && r.Runs <= in.Runs
}

// runRoom is the room one run of n rows of shape sh takes.
func runRoom(sh *rowShape, n int) Room {
	return Room{Rows: n, Cells: n * sh.words(), Strs: n * sh.nstr, Runs: 1}
}

// runBytes is the room one run of n rows of shape sh takes in the cell
// array: the packed rows and the shape's slack.
func runBytes(sh *rowShape, n int) int { return n*sh.stride + sh.slack }

// Reserve adds r to what the builder will hold. A run is taken only from
// room reserved before it. A packed row is no longer than its words, and a
// shape's slack shorter than a word, so r's words bound its bytes.
func (b *RowBuilder) Reserve(r Room) { b.reserve(r, 8*(r.Cells+r.Runs)) }

// reserve adds r to what the builder will hold, bytes of it packed cells.
func (b *RowBuilder) reserve(r Room, bytes int) { b.want, b.bytes = b.want.Add(r), b.bytes+bytes }

// has reports whether the reservation has room for r, bytes of it cells.
func (b *RowBuilder) has(r Room, bytes int) bool {
	return b.used.Add(r).fits(b.want) && bytes <= b.bytes
}

// Left returns what was reserved and not yet taken.
func (b *RowBuilder) Left() Room {
	return Room{b.want.Rows - b.used.Rows, b.want.Cells - b.used.Cells, b.want.Strs - b.used.Strs, b.want.Runs - b.used.Runs}
}

// Reset empties the builder for its next fill. Every row it handed out is
// invalid from here on. It keeps its arrays, less any above maxKeptArray.
func (b *RowBuilder) Reset() {
	b.want, b.used = Room{}, Room{}
	b.bytes = 0
	b.cells.reset()
	b.strs.reset()
	b.rows.reset()
	b.runs.reset()
}

// carveRuns takes k run headers. The caller has checked the room.
func (b *RowBuilder) carveRuns(k int) []rowBlock {
	runs := b.runs.carve(k, b.want.Runs-b.used.Runs)
	b.used.Runs += k
	return runs
}

// fillRun makes run a run of n rows of shape sh, carving its cells and
// strings. The caller has checked the room.
func (b *RowBuilder) fillRun(run *rowBlock, sh *rowShape, n int) {
	*run = rowBlock{shape: sh, cells: b.cells.carve(runBytes(sh, n), b.bytes)[:n*sh.stride]}
	b.bytes -= runBytes(sh, n)
	b.used.Cells += n * sh.words()
	if sh.nstr > 0 {
		run.strs = b.strs.carve(n*sh.nstr, b.want.Strs-b.used.Strs)
		b.used.Strs += n * sh.nstr
	}
}

// views carves the row views of runs, in order, as one slice. The caller
// has checked the room.
func (b *RowBuilder) views(runs []rowBlock, n int) []Row {
	rows := b.rows.carve(n, b.want.Rows-b.used.Rows)
	b.used.Rows += n
	i := 0
	for r := range runs {
		for j := range len(runs[r].cells) / runs[r].shape.stride {
			rows[i] = Row{&runs[r], j}
			i++
		}
	}
	return rows
}

// take returns the next run of the builder, n rows of shape sh, and its row
// views, or false when the reservation has no room for it.
func (b *RowBuilder) take(sh *rowShape, n int) (*rowBlock, []Row, bool) {
	if !b.has(runRoom(sh, n), runBytes(sh, n)) {
		return nil, nil, false
	}
	runs := b.carveRuns(1)
	b.fillRun(&runs[0], sh, n)
	return &runs[0], b.views(runs, n), true
}

// ReserveTail reserves room for the rows inserted into t after the first
// `after` inserts — as many of the oldest of them as keep each of the
// builder's arrays within bound bytes, counting what it holds already —
// and returns the insert count of the last row it reserved room for: the
// bound a later Tail copies up to, so that rows past it (inserted in
// between, or left for a later fill) wait for the next read instead of
// overrunning the reservation. Rows that wrapped out of the ring before
// the first reserved one fall below that count, for Tail to report lost.
// A builder that holds nothing reserves at least one row, so that a fill
// always moves.
func (b *RowBuilder) ReserveTail(t *Table, after uint64, bound int) (upto uint64) {
	sh := t.schema.shape
	t.mu.RLock()
	lo, hi, _ := t.tailRange(after, t.inserts)
	n := min(hi-lo, b.fit(sh, bound))
	upto = t.inserts - uint64(hi-lo-n) // the range ends at the newest row
	t.mu.RUnlock()
	if n > 0 {
		b.reserve(runRoom(sh, n), runBytes(sh, n))
	}
	return upto
}

// fit returns how many rows of shape sh, as one more run, the builder can
// reserve room for before one of its arrays passes bound bytes: at least
// one if it holds nothing yet.
func (b *RowBuilder) fit(sh *rowShape, bound int) int {
	const rowSize, strSize, runSize = int(unsafe.Sizeof(Row{})), int(unsafe.Sizeof("")), int(unsafe.Sizeof(rowBlock{}))
	n := min((bound-b.bytes-sh.slack)/sh.stride, bound/rowSize-b.want.Rows)
	if sh.nstr > 0 {
		n = min(n, (bound/strSize-b.want.Strs)/sh.nstr)
	}
	if (b.want.Runs+1)*runSize > bound {
		n = 0
	}
	if b.want == (Room{}) {
		return max(n, 1)
	}
	return max(n, 0)
}

// Tail copies into the builder, as one run, the retained rows inserted into
// t after the first `after` inserts and no later than the upto-th, where
// upto is what ReserveTail returned: Table.Tail(after) as of that
// ReserveTail, less whatever has wrapped out of the ring since, which lost
// counts with the rest.
func (b *RowBuilder) Tail(t *Table, after, upto uint64) (rows []Row, lost uint64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	lo, hi, lost := t.tailRange(after, upto)
	if lo == hi {
		return nil, lost
	}
	run, rows, ok := b.take(t.schema.shape, hi-lo)
	if !ok { // upto is past what ReserveTail returned
		panic("hwdb: RowBuilder.Tail past its reservation")
	}
	t.copyInto(run, lo, hi)
	return rows, lost
}

// Copy reserves room for rows and copies them into the builder, each
// maximal run of one layout as a run of its own (Flows rows of a table and
// off the wire share a shape, not a layout), and returns the copies: what a
// consumer that keeps rows lent to it for a call keeps instead.
func (b *RowBuilder) Copy(rows []Row) []Row {
	if len(rows) == 0 {
		return nil
	}
	var room Room
	bytes := 0
	for i, j := 0, 0; i < len(rows); i = j {
		j = runEnd(rows, i, sameLayout)
		room, bytes = room.Add(runRoom(rows[i].shape(), j-i)), bytes+runBytes(rows[i].shape(), j-i)
	}
	b.reserve(room, bytes)
	runs := b.carveRuns(room.Runs)
	for r, i := 0, 0; i < len(rows); r++ {
		j := runEnd(rows, i, sameLayout)
		sh := rows[i].shape()
		run := &runs[r]
		b.fillRun(run, sh, j-i)
		for k, row := range rows[i:j] {
			if row.b == nil { // the zero row: time 0, no columns
				clear(run.cells[k*sh.stride : (k+1)*sh.stride])
				continue
			}
			copy(run.cells[k*sh.stride:(k+1)*sh.stride], row.b.cells[row.i*sh.stride:])
			copy(run.strs[k*sh.nstr:(k+1)*sh.nstr], row.b.strs[row.i*sh.nstr:])
		}
		i = j
	}
	return b.views(runs, len(rows))
}

// ------------------------------------------------------------------ wire

// The wire layout of a sequence of rows, which the shard protocol carries
// and AppendRows and ReadRows write and read: the number of runs (a
// uvarint); then, for each maximal run of consecutive rows of one shape,
// its column count (uvarint) and one type byte per column, its row count
// (uvarint), its rows × (1 + columns) cells, each widened from its packed
// width to an eight-byte little-endian word, and its strings row by row,
// each a uvarint length and its bytes. Two consecutive runs never share a
// shape (column types: widths do not show), and no run is empty, so a
// sequence of rows has exactly one encoding.

// errWire wraps every ReadRows failure.
var errWire = errors.New("hwdb: bad row encoding")

func wireErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errWire, fmt.Sprintf(format, args...))
}

// zeroShape is the shape of the zero Row: no columns. Its one cell, the
// time, goes on the wire as 0.
var zeroShape = &rowShape{stride: 8}

func (r Row) shape() *rowShape {
	if r.b == nil {
		return zeroShape
	}
	return r.b.shape
}

// sameShape reports whether two shapes lay out the same column types.
func sameShape(a, b *rowShape) bool {
	if a == b {
		return true
	}
	if len(a.cols) != len(b.cols) {
		return false
	}
	for i := range a.cols {
		if a.cols[i].typ != b.cols[i].typ {
			return false
		}
	}
	return true
}

// sameLayout reports whether two shapes also pack their cells alike, so
// that their rows can share a block.
func sameLayout(a, b *rowShape) bool { return a == b || slices.Equal(a.cols, b.cols) }

// runEnd returns where the run of rows that starts at rows[i], by same, ends.
func runEnd(rows []Row, i int, same func(a, b *rowShape) bool) int {
	sh, j := rows[i].shape(), i+1
	for j < len(rows) && same(rows[j].shape(), sh) {
		j++
	}
	return j
}

// RoomFor returns the room a RowBuilder needs to read rows back from their
// AppendRows encoding.
func RoomFor(rows []Row) Room {
	var r Room
	for i := 0; i < len(rows); {
		j := runEnd(rows, i, sameShape)
		r = r.Add(runRoom(rows[i].shape(), j-i))
		i = j
	}
	return r
}

// AppendRows appends rows to dst in the wire layout described above.
func AppendRows(dst []byte, rows []Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(RoomFor(rows).Runs))
	for i := 0; i < len(rows); {
		j := runEnd(rows, i, sameShape)
		sh := rows[i].shape()
		dst = binary.AppendUvarint(dst, uint64(len(sh.cols)))
		for _, c := range sh.cols {
			dst = append(dst, byte(c.typ))
		}
		dst = binary.AppendUvarint(dst, uint64(j-i))
		dst = slices.Grow(dst, (j-i)*sh.words()*8)
		for _, r := range rows[i:j] {
			if r.b == nil {
				dst = binary.LittleEndian.AppendUint64(dst, 0)
				continue
			}
			dst = binary.LittleEndian.AppendUint64(dst, r.nanos())
			for c := range r.b.shape.cols {
				dst = binary.LittleEndian.AppendUint64(dst, r.cell(c))
			}
		}
		if sh.nstr > 0 {
			for _, r := range rows[i:j] {
				for _, s := range r.b.strs[r.i*sh.nstr : (r.i+1)*sh.nstr] {
					dst = binary.AppendUvarint(dst, uint64(len(s)))
					dst = append(dst, s...)
				}
			}
		}
		i = j
	}
	return dst
}

// ReadRows reads one AppendRows encoding from the front of src into the
// builder and returns its rows and the number of bytes it took. schema is
// that of the table the rows were read from, if known (nil if not): a run
// whose column types are the schema's is laid out as the table lays it
// out, so a Flows row read off the wire is packed as tightly as in its
// ring; any other run, at its column types' widths. It is strict: a
// truncated or empty run, an unknown type byte, two consecutive runs of
// one shape, a cell wider than its column, or rows the reservation has no
// room for are errors, and no count is trusted further than the bytes
// behind it.
func (b *RowBuilder) ReadRows(src []byte, schema *Schema) (rows []Row, n int, err error) {
	off := 0
	uvarint := func() (uint64, error) {
		v, k := binary.Uvarint(src[off:])
		if k <= 0 {
			return 0, wireErr("truncated uvarint at %d", off)
		}
		off += k
		return v, nil
	}
	nruns, err := uvarint()
	if err != nil {
		return nil, 0, err
	}
	if nruns > uint64(len(src)-off)/10 { // a run is at least two counts and a cell
		return nil, 0, wireErr("%d runs in %d bytes", nruns, len(src)-off)
	}
	if !b.used.Add(Room{Runs: int(nruns)}).fits(b.want) {
		return nil, 0, wireErr("%d runs past the builder's reservation", nruns)
	}
	runs := b.carveRuns(int(nruns))
	var prev *rowShape
	total := 0
	for r := range runs {
		ncols, err := uvarint()
		if err != nil {
			return nil, 0, err
		}
		if ncols > uint64(len(src)-off) {
			return nil, 0, wireErr("%d columns in %d bytes", ncols, len(src)-off)
		}
		sh, err := wireShape(src[off:off+int(ncols)], schema)
		if err != nil {
			return nil, 0, err
		}
		off += int(ncols)
		if prev != nil && sameShape(prev, sh) {
			return nil, 0, wireErr("two consecutive runs of one shape")
		}
		prev = sh
		nrows, err := uvarint()
		if err != nil {
			return nil, 0, err
		}
		if nrows == 0 || nrows > uint64(len(src)-off)/uint64(sh.words()*8) {
			return nil, 0, wireErr("%d rows of %d cells in %d bytes", nrows, sh.words(), len(src)-off)
		}
		room := runRoom(sh, int(nrows))
		total += room.Rows
		if !b.has(Room{Rows: total, Cells: room.Cells, Strs: room.Strs}, runBytes(sh, room.Rows)) {
			return nil, 0, wireErr("%d rows past the builder's reservation", nrows)
		}
		run := &runs[r]
		b.fillRun(run, sh, room.Rows)
		for row := run.cells; len(row) > 0; row = row[sh.stride:] {
			binary.LittleEndian.PutUint64(row, binary.LittleEndian.Uint64(src[off:]))
			off += 8
			for _, col := range sh.cols {
				w := binary.LittleEndian.Uint64(src[off:])
				if w&^col.mask != 0 {
					return nil, 0, wireErr("%#x in a %d-byte %s cell", w, col.width, col.typ)
				}
				putCell(row[col.off:], col.width, w)
				off += 8
			}
		}
		for i := range run.strs {
			l, err := uvarint()
			if err != nil {
				return nil, 0, err
			}
			if l > uint64(len(src)-off) {
				return nil, 0, wireErr("string of %d bytes in %d", l, len(src)-off)
			}
			run.strs[i] = string(src[off : off+int(l)])
			off += int(l)
		}
	}
	if total == 0 {
		return nil, off, nil
	}
	return b.views(runs, total), off, nil
}

// Shapes built outside a table — read off the wire, or the values' own in
// NewRow — are interned by their type bytes, so a shape seen before costs
// nothing. The table is bounded: past maxInternedShapes, a new shape is
// built for its run alone.
const maxInternedShapes = 64

var internedShapes struct {
	sync.Mutex
	m map[string]*rowShape
}

// wireShape returns the shape of a run read off the wire whose column
// types are tags, which must all name a type: schema's own, if schema is
// not nil and its column types are tags.
func wireShape(tags []byte, schema *Schema) (*rowShape, error) {
	if schema != nil && slices.EqualFunc(schema.shape.cols, tags, func(c shapeCol, t byte) bool { return c.typ == ColType(t) }) {
		return schema.shape, nil
	}
	for _, t := range tags {
		if ColType(t) < TInt || ColType(t) > TTime {
			return nil, wireErr("bad column type %d", t)
		}
	}
	return internShape(tags), nil
}

// internShape returns the shape whose column types are tags.
func internShape(tags []byte) *rowShape {
	internedShapes.Lock()
	defer internedShapes.Unlock()
	if sh, ok := internedShapes.m[string(tags)]; ok {
		return sh
	}
	sh := newRowShape(len(tags), func(i int) ColType { return ColType(tags[i]) }, nil)
	if len(internedShapes.m) < maxInternedShapes {
		if internedShapes.m == nil {
			internedShapes.m = make(map[string]*rowShape)
		}
		internedShapes.m[string(tags)] = sh
	}
	return sh
}
