package interp

import (
	"encoding/binary"
	"sort"

	"vulfi/internal/ir"
)

// memBase is the lowest valid address; [0, memBase) is the unmapped null
// page, so small corrupted pointers fault like they would on hardware.
const memBase = 0x1000

// guardGap is the unmapped slack between segments, so off-by-small-K
// corrupted addresses land in a hole and trap rather than silently hitting
// the neighbouring allocation.
const guardGap = 64

// Memory is a flat byte-addressable memory made of allocated segments with
// unmapped guard gaps. Accesses that do not fall entirely inside one live
// segment trap.
type Memory struct {
	segs  []segment
	next  uint64
	limit uint64
	data  map[uint64][]byte // segment start -> storage
	// free recycles segment storage across Reset by (aligned) size class;
	// recycled buffers are re-zeroed on reuse so a reset memory is
	// indistinguishable from a fresh one.
	free map[uint64][][]byte
}

type segment struct {
	start uint64
	size  uint64
}

// NewMemory returns a memory with the given total allocation limit in
// bytes (0 means a 1 GiB default).
func NewMemory(limit uint64) *Memory {
	if limit == 0 {
		limit = 1 << 30
	}
	return &Memory{next: memBase, limit: limit, data: map[uint64][]byte{}}
}

// Reset returns the memory to its freshly-constructed state while
// keeping segment storage for recycling: subsequent Allocs of the same
// sizes reuse (and re-zero) the old backing arrays instead of growing
// the heap. The address sequence after Reset is identical to a fresh
// Memory's, so a deterministic program sees the same pointers either
// way.
func (m *Memory) Reset(limit uint64) {
	if limit == 0 {
		limit = 1 << 30
	}
	if m.free == nil {
		m.free = map[uint64][][]byte{}
	}
	for start, buf := range m.data {
		m.free[uint64(len(buf))] = append(m.free[uint64(len(buf))], buf)
		delete(m.data, start)
	}
	m.segs = m.segs[:0]
	m.next = memBase
	m.limit = limit
}

// Alloc reserves size bytes and returns the segment base address.
func (m *Memory) Alloc(size uint64) (uint64, *Trap) {
	if size == 0 {
		size = 1
	}
	// 16-byte align every segment (vector friendly).
	size = (size + 15) &^ 15
	if m.next+size > m.limit+memBase {
		return 0, trapf(TrapOOM, "arena limit %d exceeded", m.limit)
	}
	addr := m.next
	m.segs = append(m.segs, segment{start: addr, size: size})
	store, recycled := m.buffer(size)
	if recycled {
		clear(store)
	}
	m.data[addr] = store
	m.next = addr + size + guardGap
	return addr, nil
}

// buffer pops recycled segment storage of size bytes, reporting
// recycled == true because its contents are stale, or makes a zeroed
// buffer.
func (m *Memory) buffer(size uint64) (store []byte, recycled bool) {
	if bufs := m.free[size]; len(bufs) > 0 {
		store = bufs[len(bufs)-1]
		bufs[len(bufs)-1] = nil
		m.free[size] = bufs[:len(bufs)-1]
		return store, true
	}
	return make([]byte, size), false
}

// restore replaces the memory image with copies of the given segments
// (see Interp.RestoreState), recycling the current storage first.
func (m *Memory) restore(segs []segment, data [][]byte, next uint64) {
	m.Reset(m.limit)
	for i, sg := range segs {
		store, _ := m.buffer(sg.size)
		copy(store, data[i])
		m.data[sg.start] = store
	}
	m.segs = append(m.segs, segs...)
	m.next = next
}

// Allocated returns the total number of live segments (diagnostics).
func (m *Memory) Allocated() int { return len(m.segs) }

// find returns the segment wholly containing [addr, addr+size), or nil.
func (m *Memory) find(addr, size uint64) *segment {
	// Segments are appended in increasing address order.
	i := sort.Search(len(m.segs), func(i int) bool {
		return m.segs[i].start+m.segs[i].size > addr
	})
	if i == len(m.segs) {
		return nil
	}
	s := &m.segs[i]
	if addr >= s.start && addr+size <= s.start+s.size {
		return s
	}
	return nil
}

func (m *Memory) check(addr, size uint64) ([]byte, uint64, *Trap) {
	if addr < memBase {
		return nil, 0, trapf(TrapNull, "access at %#x", addr)
	}
	s := m.find(addr, size)
	if s == nil {
		return nil, 0, trapf(TrapOOB, "access of %d bytes at %#x", size, addr)
	}
	return m.data[s.start], addr - s.start, nil
}

// ReadBytes copies size bytes at addr into a fresh slice.
func (m *Memory) ReadBytes(addr, size uint64) ([]byte, *Trap) {
	buf, off, tr := m.check(addr, size)
	if tr != nil {
		return nil, tr
	}
	out := make([]byte, size)
	copy(out, buf[off:off+size])
	return out, nil
}

// WriteBytes stores b at addr.
func (m *Memory) WriteBytes(addr uint64, b []byte) *Trap {
	buf, off, tr := m.check(addr, uint64(len(b)))
	if tr != nil {
		return tr
	}
	copy(buf[off:], b)
	return nil
}

// LoadScalar reads one scalar of type ty at addr.
func (m *Memory) LoadScalar(ty *ir.Type, addr uint64) (uint64, *Trap) {
	size := uint64(ty.ByteSize())
	buf, off, tr := m.check(addr, size)
	if tr != nil {
		return 0, tr
	}
	return readLE(buf[off:], int(size)), nil
}

// StoreScalar writes one scalar payload of type ty at addr.
func (m *Memory) StoreScalar(ty *ir.Type, addr uint64, bits uint64) *Trap {
	size := uint64(ty.ByteSize())
	buf, off, tr := m.check(addr, size)
	if tr != nil {
		return tr
	}
	writeLE(buf[off:], int(size), bits)
	return nil
}

// Load reads a value of type ty (scalar or vector, lanes contiguous) at
// addr.
func (m *Memory) Load(ty *ir.Type, addr uint64) (Value, *Trap) {
	lanes := ty.Lanes()
	es := uint64(ty.Scalar().ByteSize())
	buf, off, tr := m.check(addr, es*uint64(lanes))
	if tr != nil {
		return Value{}, tr
	}
	v := Zero(ty)
	for i := 0; i < lanes; i++ {
		v.Bits[i] = readLE(buf[off+uint64(i)*es:], int(es))
	}
	return v, nil
}

// LoadInto reads a value of out's type at addr into out's existing
// lane storage — the allocation-free variant of Load for engines that
// recycle result storage. Every lane is written on success.
func (m *Memory) LoadInto(out Value, addr uint64) *Trap {
	lanes := len(out.Bits)
	es := uint64(out.Ty.Scalar().ByteSize())
	buf, off, tr := m.check(addr, es*uint64(lanes))
	if tr != nil {
		return tr
	}
	for i := 0; i < lanes; i++ {
		out.Bits[i] = readLE(buf[off+uint64(i)*es:], int(es))
	}
	return nil
}

// Store writes v (scalar or vector, lanes contiguous) at addr.
func (m *Memory) Store(v Value, addr uint64) *Trap {
	es := uint64(v.Ty.Scalar().ByteSize())
	buf, off, tr := m.check(addr, es*uint64(len(v.Bits)))
	if tr != nil {
		return tr
	}
	for i, b := range v.Bits {
		writeLE(buf[off+uint64(i)*es:], int(es), b)
	}
	return nil
}

func readLE(b []byte, size int) uint64 {
	switch size {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 8:
		return binary.LittleEndian.Uint64(b)
	}
	panic("interp: bad scalar size")
}

func writeLE(b []byte, size int, v uint64) {
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(b, v)
	default:
		panic("interp: bad scalar size")
	}
}
