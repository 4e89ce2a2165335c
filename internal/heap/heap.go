// Package heap models the logical object space of the distributed JVM: the
// class registry, object instances with their headers, and the object
// reference graph. Sampling metadata lives here exactly where the paper puts
// it — sequence numbers in object headers (a half-word per object, unique
// within a class) and the sampling gap stored per class, "as close to
// subclasses as possible".
//
// Per-copy cache state (valid / invalid / false-invalid) is not part of this
// package; it belongs to the consistency protocol (package gos) because each
// node's replica carries its own state bits.
package heap

import (
	"fmt"
	"math"
	"sort"
)

// Objects are stored in fixed-size chunks so that their addresses stay
// stable for the lifetime of the registry (consumers cache *Object freely)
// while allocation remains one bulk chunk per objChunkLen objects instead of
// one heap allocation per object.
const (
	objChunkShift = 10
	objChunkLen   = 1 << objChunkShift
	objChunkMask  = objChunkLen - 1
)

type objChunk [objChunkLen]Object

// PageSize is the virtual memory page size the paper's nX sampling-rate
// notation is defined against ("sampling eight objects per memory page").
const PageSize = 4096

// WordSize is the machine word (the paper's testbed is 32-bit x86).
const WordSize = 4

// ClassID indexes into the registry's class table.
type ClassID int32

// ObjectID is a globally unique object identifier.
type ObjectID int64

// InvalidObject is the zero ObjectID; real IDs start at 1.
const InvalidObject ObjectID = 0

// Class describes a Java class (or array class) shared across the cluster.
// Sampling-specific metadata — the current gap — is stored at class level.
type Class struct {
	ID   ClassID
	Name string

	// Size is the instance size in bytes for scalar classes. For array
	// classes it is 0 and ElemSize is used instead.
	Size int

	// IsArray marks array classes; instances carry per-element sequence
	// numbers so that sampling is amortized over elements.
	IsArray  bool
	ElemSize int

	// NumRefFields is how many object-reference fields instances carry;
	// used when generating object graphs and when the sticky-set resolver
	// walks the heap.
	NumRefFields int

	// nextSeq allocates header sequence numbers. For scalar classes it
	// advances by 1 per instance; for array classes by the element count,
	// so every element owns a number ("these numbers are continuous").
	nextSeq int64

	// gap is the current real sampling gap (a prime). gap == 1 means full
	// sampling; gap <= 0 means sampling disabled for the class.
	gap int64
}

// Gap returns the class's current real (prime) sampling gap.
func (c *Class) Gap() int64 { return c.gap }

// SetGap installs a new real sampling gap. The caller is responsible for
// triggering resampling of live objects.
func (c *Class) SetGap(real int64) { c.gap = real }

// InstanceBytes returns the memory footprint of an instance with n elements
// (n is ignored for scalar classes).
func (c *Class) InstanceBytes(n int) int {
	if c.IsArray {
		return c.ElemSize * n
	}
	return c.Size
}

// Object is a logical shared object. Fields are immutable after allocation
// except Refs (mutable object graph) and profiling bookkeeping owned by
// other packages.
type Object struct {
	ID    ObjectID
	Class *Class

	// Seq is the header sequence number: the instance's own number for
	// scalar classes, or the first element's number for arrays.
	Seq int64

	// Len is the element count for arrays, 0 otherwise.
	Len int

	// Home is the node holding the home copy (the first allocator).
	Home int

	// Addr is the simulated allocation address on the home node's heap;
	// Page(addr) gives the page used by the page-based tracking baseline.
	Addr int64

	// Refs are outgoing reference fields (the object graph). For arrays of
	// references, Refs holds the element pointers.
	Refs []*Object
}

// Bytes returns the object's data size in bytes.
func (o *Object) Bytes() int { return o.Class.InstanceBytes(o.Len) }

// PageSpan returns the inclusive range of pages the object covers.
func (o *Object) PageSpan() (first, last int64) {
	return o.Addr / PageSize, (o.Addr + int64(o.Bytes()) - 1) / PageSize
}

// Sampled reports whether the object is selected under the class's current
// gap. A scalar object is sampled iff its sequence number is divisible by
// the gap. An array is sampled iff at least one element's number is
// divisible ("an array is sampled only if at least one of its elements is
// logically sampled").
func (o *Object) Sampled() bool {
	return o.SampledAtGap(o.Class.gap)
}

// SampledAtGap evaluates the sampling predicate at an explicit gap.
func (o *Object) SampledAtGap(gap int64) bool {
	if gap <= 0 {
		return false
	}
	if gap == 1 {
		return true
	}
	if !o.Class.IsArray {
		return o.Seq%gap == 0
	}
	return SampledElems(o.Seq, o.Len, gap) > 0
}

// SampledElems counts the sequence numbers divisible by gap within
// [start, start+n). This implements the paper's amortization: the logged
// sample size for an array access is sampledElems × elemSize.
func SampledElems(start int64, n int, gap int64) int {
	if gap <= 0 || n <= 0 {
		return 0
	}
	if gap == 1 {
		return n
	}
	end := start + int64(n) - 1 // inclusive
	return int(floorDiv(end, gap) - floorDiv(start-1, gap))
}

// floorDiv is integer division rounding toward negative infinity (Go's /
// truncates toward zero, which miscounts when the dividend is negative —
// e.g. for arrays whose first element has sequence number 0).
func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// AmortizedBytes returns the sample size to log for an access to the object:
// full size for scalar objects, sampledElems × elemSize for arrays.
func (o *Object) AmortizedBytes() int { return o.AmortizedBytesAtGap(o.Class.gap) }

// AmortizedBytesAtGap is AmortizedBytes at an explicit gap.
func (o *Object) AmortizedBytesAtGap(gap int64) int {
	if !o.Class.IsArray {
		return o.Class.Size
	}
	return SampledElems(o.Seq, o.Len, gap) * o.Class.ElemSize
}

// Registry owns all classes and objects of one DJVM instance.
//
// Objects live in a dense chunked arena: ObjectID n is the (n-1)-th slot of
// the arena, so lookup is two array indexes and allocation is in-place (no
// per-object heap allocation). The only per-class state is an instance
// count, kept at Alloc / AllocArray time.
type Registry struct {
	classes      []*Class
	classByName  map[string]*Class
	chunks       []*objChunk
	classCount   []int // instances per class, indexed by ClassID
	nextObjectID ObjectID

	// refSlab bulk-allocates Refs arrays: reference-field slices are cut
	// from a shared backing array (full-slice expressions keep neighbours
	// isolated) so ref-bearing classes don't pay one allocation per object.
	refSlab []*Object
	refPos  int

	// bump allocators per node for address/page assignment
	nodeBrk map[int]int64
}

// refSlabLen is the Refs backing-array chunk size in slots.
const refSlabLen = 4096

// allocRefs cuts a zeroed k-slot reference array from the slab.
func (r *Registry) allocRefs(k int) []*Object {
	if k > refSlabLen {
		return make([]*Object, k)
	}
	if r.refPos+k > len(r.refSlab) {
		r.refSlab = make([]*Object, refSlabLen)
		r.refPos = 0
	}
	s := r.refSlab[r.refPos : r.refPos+k : r.refPos+k]
	r.refPos += k
	return s
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		classByName: make(map[string]*Class),
		nodeBrk:     make(map[int]int64),
	}
}

// DefineClass registers a scalar class with the given instance size and
// reference-field count. Defining the same name twice panics.
func (r *Registry) DefineClass(name string, size, numRefFields int) *Class {
	if size <= 0 {
		panic("heap: class size must be positive: " + name)
	}
	return r.define(&Class{Name: name, Size: size, NumRefFields: numRefFields})
}

// DefineArrayClass registers an array class with the given element size.
func (r *Registry) DefineArrayClass(name string, elemSize int) *Class {
	if elemSize <= 0 {
		panic("heap: element size must be positive: " + name)
	}
	return r.define(&Class{Name: name, IsArray: true, ElemSize: elemSize})
}

func (r *Registry) define(c *Class) *Class {
	if _, dup := r.classByName[c.Name]; dup {
		panic("heap: duplicate class " + c.Name)
	}
	c.ID = ClassID(len(r.classes))
	c.gap = 1 // default: full sampling until a gap is configured
	r.classes = append(r.classes, c)
	r.classCount = append(r.classCount, 0)
	r.classByName[c.Name] = c
	return c
}

// Class returns a class by name, or nil.
func (r *Registry) Class(name string) *Class { return r.classByName[name] }

// ClassNames returns all class names sorted alphabetically.
func (r *Registry) ClassNames() []string {
	names := make([]string, 0, len(r.classes))
	for _, c := range r.classes {
		names = append(names, c.Name)
	}
	sort.Strings(names)
	return names
}

// Alloc creates a scalar instance of c homed at node.
func (r *Registry) Alloc(c *Class, node int) *Object {
	if c.IsArray {
		panic("heap: Alloc on array class " + c.Name)
	}
	o := r.newObject(c, node, 0)
	o.Seq = c.nextSeq
	c.nextSeq++
	if c.NumRefFields > 0 {
		o.Refs = r.allocRefs(c.NumRefFields)
	}
	return o
}

// AllocArray creates an array instance of c with n elements homed at node.
// The array consumes n consecutive sequence numbers starting at o.Seq.
func (r *Registry) AllocArray(c *Class, n, node int) *Object {
	if !c.IsArray {
		panic("heap: AllocArray on scalar class " + c.Name)
	}
	if n <= 0 {
		panic("heap: array length must be positive")
	}
	o := r.newObject(c, node, n)
	o.Seq = c.nextSeq
	c.nextSeq += int64(n)
	return o
}

func (r *Registry) newObject(c *Class, node, n int) *Object {
	size := int64(c.InstanceBytes(n))
	if size > math.MaxInt32 {
		// Per-object side tables count an object's bytes in an int32.
		panic(fmt.Sprintf("heap: a %d-byte %s exceeds the int32 object size", size, c.Name))
	}
	r.nextObjectID++
	idx := int(r.nextObjectID) - 1
	if idx>>objChunkShift == len(r.chunks) {
		r.chunks = append(r.chunks, new(objChunk))
	}
	o := &r.chunks[idx>>objChunkShift][idx&objChunkMask]
	*o = Object{ID: r.nextObjectID, Class: c, Len: n, Home: node}
	// Bump-allocate with word alignment on the home node's heap.
	brk := r.nodeBrk[node]
	align := int64(WordSize)
	brk = (brk + align - 1) / align * align
	o.Addr = brk
	r.nodeBrk[node] = brk + size
	r.classCount[c.ID]++
	return o
}

// Object looks up an object by ID in the chunk arena, or nil for an ID
// that has not been allocated.
func (r *Registry) Object(id ObjectID) *Object {
	if id <= InvalidObject || id > r.nextObjectID {
		return nil
	}
	idx := int64(id) - 1
	return &r.chunks[idx>>objChunkShift][idx&objChunkMask]
}

// MustObject looks up an object by ID and panics if missing.
func (r *Registry) MustObject(id ObjectID) *Object {
	o := r.Object(id)
	if o == nil {
		panic(fmt.Sprintf("heap: unknown object %d", id))
	}
	return o
}

// NumObjectsOfClass reports how many instances of c have been allocated.
func (r *Registry) NumObjectsOfClass(c *Class) int { return r.classCount[c.ID] }
