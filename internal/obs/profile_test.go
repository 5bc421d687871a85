package obs

import (
	"bytes"
	"compress/gzip"
	"io"
	"reflect"
	"testing"

	"armvirt/internal/sim"
)

func TestSlug(t *testing.T) {
	cases := map[string]string{
		"GP Regs: save":       "gp-regs-save",
		"hypercall":           "hypercall",
		"Trap to EL2":         "trap-to-el2",
		"  weird -- name!!  ": "weird-name",
		"":                    "",
		"VGIC: restore":       "vgic-restore",
	}
	for in, want := range cases {
		if got := Slug(in); got != want {
			t.Errorf("Slug(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNilRecorderProfileOps(t *testing.T) {
	var r *Recorder
	p := new(sim.Proc)
	r.Span(p, "a")
	r.ChargeCycles(p, "x", 10)
	r.EndSpan(p)
	r.ResetProfile()
	if r.Profile() != nil {
		t.Fatal("nil recorder should return nil profile")
	}
	var pf *Profile
	if pf.Total() != 0 || pf.Entries() != nil || pf.Tree() != nil {
		t.Fatal("nil profile accessors should be zero-valued")
	}
}

func TestSpanNestingAndAttribution(t *testing.T) {
	r := NewRecorder(1, 0)
	p := new(sim.Proc)
	q := new(sim.Proc)

	r.Span(p, "hypercall")
	r.Span(p, "Exit to Host")
	r.ChargeCycles(p, "Trap to EL2", 100)
	r.Span(p, "gic-save")
	r.ChargeCycles(p, "VGIC: save", 40)
	r.EndSpan(p)
	r.ChargeCycles(p, "GP Regs: save", 60)
	r.EndSpan(p)
	r.EndSpan(p)

	// A second fiber charges concurrently with its own (empty) stack.
	r.ChargeCycles(q, "IPI send", 7)
	// Zero and negative charges are ignored.
	r.ChargeCycles(p, "noise", 0)
	r.ChargeCycles(p, "noise", -5)

	pf := r.Profile()
	if got := pf.Total(); got != 207 {
		t.Fatalf("Total = %d, want 207", got)
	}
	want := []ProfileEntry{
		{Stack: []string{"hypercall", "exit-to-host", "trap-to-el2"}, Cycles: 100},
		{Stack: []string{"hypercall", "exit-to-host", "gic-save", "vgic-save"}, Cycles: 40},
		{Stack: []string{"hypercall", "exit-to-host", "gp-regs-save"}, Cycles: 60},
		{Stack: []string{"ipi-send"}, Cycles: 7},
	}
	if got := pf.Entries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Entries = %+v, want %+v", got, want)
	}

	// The flat view sums by leaf and keeps the charged display names.
	wantLeaves := []Leaf{{"Trap to EL2", 100}, {"VGIC: save", 40}, {"GP Regs: save", 60}, {"IPI send", 7}}
	if got := pf.Leaves(); !reflect.DeepEqual(got, wantLeaves) {
		t.Fatalf("Leaves = %+v, want %+v", got, wantLeaves)
	}

	rows := pf.Tree()
	if len(rows) != 7 {
		t.Fatalf("Tree rows = %d, want 7: %+v", len(rows), rows)
	}
	if rows[0].Name != "hypercall" || rows[0].Total != 200 || rows[0].Self != 0 {
		t.Fatalf("root row = %+v", rows[0])
	}
}

// Leaves sums one charge name across every phase it was charged under and
// keeps the order names were first seen in the DFS.
func TestLeavesAggregateInFirstSeenOrder(t *testing.T) {
	r := NewRecorder(1, 0)
	p := new(sim.Proc)
	r.Span(p, "a")
	r.ChargeCycles(p, "X: save", 10)
	r.ChargeCycles(p, "Y", 5)
	r.EndSpan(p)
	r.Span(p, "b")
	r.ChargeCycles(p, "Y", 7)
	r.ChargeCycles(p, "X: save", 1)
	r.ChargeCycles(p, "Z", 2)
	r.EndSpan(p)
	want := []Leaf{{"X: save", 11}, {"Y", 12}, {"Z", 2}}
	if got := r.Profile().Leaves(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Leaves = %+v, want %+v", got, want)
	}
	if got := (*Profile)(nil).Leaves(); got != nil {
		t.Fatalf("nil profile Leaves = %+v", got)
	}
}

func TestEndSpanLenientAtEmptyStack(t *testing.T) {
	r := NewRecorder(1, 0)
	p := new(sim.Proc)
	r.EndSpan(p) // nothing open: must not panic
	r.Span(p, "a")
	r.EndSpan(p)
	r.EndSpan(p) // over-close: still fine
	r.ChargeCycles(p, "x", 1)
	if got := r.Profile().Entries(); len(got) != 1 || got[0].Stack[0] != "x" {
		t.Fatalf("charge after over-close landed at %+v", got)
	}
}

func TestResetProfileKeepsOpenSpans(t *testing.T) {
	r := NewRecorder(1, 0)
	p := new(sim.Proc)
	r.Span(p, "warmup-phase")
	r.ChargeCycles(p, "work", 500)
	// Reset mid-span: the open cursor must stay valid and warm-up cycles
	// must vanish from exports.
	r.ResetProfile()
	if got := r.Profile().Total(); got != 0 {
		t.Fatalf("Total after reset = %d, want 0", got)
	}
	if got := r.Profile().Entries(); got != nil {
		t.Fatalf("Entries after reset = %+v, want none", got)
	}
	r.ChargeCycles(p, "work", 30)
	r.EndSpan(p)
	want := []ProfileEntry{{Stack: []string{"warmup-phase", "work"}, Cycles: 30}}
	if got := r.Profile().Entries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Entries = %+v, want %+v", got, want)
	}
}

func TestFoldedFormat(t *testing.T) {
	r := NewRecorder(1, 0)
	p := new(sim.Proc)
	r.Span(p, "hypercall")
	r.ChargeCycles(p, "eret", 65)
	r.EndSpan(p)
	r.ChargeCycles(p, "guest compute", 1000)
	want := "hypercall;eret 65\nguest-compute 1000\n"
	if got := r.Profile().Folded(); got != want {
		t.Fatalf("Folded = %q, want %q", got, want)
	}
}

func TestPprofSamplesNanos(t *testing.T) {
	entries := []ProfileEntry{{Stack: []string{"a", "b"}, Cycles: 4200}}
	s := PprofSamples(entries, 2100, "kvm-arm", "hypercall")
	if len(s) != 1 {
		t.Fatalf("samples = %d", len(s))
	}
	wantStack := []string{"kvm-arm", "hypercall", "a", "b"}
	if !reflect.DeepEqual(s[0].Stack, wantStack) {
		t.Fatalf("stack = %v, want %v", s[0].Stack, wantStack)
	}
	if s[0].Cycles != 4200 || s[0].Nanos != 2000 {
		t.Fatalf("cycles/nanos = %d/%d, want 4200/2000", s[0].Cycles, s[0].Nanos)
	}
}

// --- minimal profile.proto decoder for round-trip verification --------------

type pbMsg []byte

func (m pbMsg) fields(f func(num int, wire int, varint uint64, data []byte)) {
	i := 0
	readVarint := func() uint64 {
		var v uint64
		for shift := uint(0); ; shift += 7 {
			b := m[i]
			i++
			v |= uint64(b&0x7f) << shift
			if b < 0x80 {
				return v
			}
		}
	}
	for i < len(m) {
		key := readVarint()
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			f(num, wire, readVarint(), nil)
		case 2:
			n := int(readVarint())
			f(num, wire, 0, m[i:i+n])
			i += n
		default:
			panic("unexpected wire type")
		}
	}
}

func varints(b []byte) []uint64 {
	var out []uint64
	i := 0
	for i < len(b) {
		var v uint64
		for shift := uint(0); ; shift += 7 {
			c := b[i]
			i++
			v |= uint64(c&0x7f) << shift
			if c < 0x80 {
				break
			}
		}
		out = append(out, v)
	}
	return out
}

func TestWritePprofRoundTrip(t *testing.T) {
	samples := []PprofSample{
		{Stack: []string{"kvm-arm", "hypercall", "trap-to-el2"}, Cycles: 100, Nanos: 50},
		{Stack: []string{"kvm-arm", "hypercall", "eret"}, Cycles: 65, Nanos: 32},
	}
	var buf bytes.Buffer
	if err := WritePprof(&buf, samples); err != nil {
		t.Fatal(err)
	}
	gz, err := gzip.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("output not gzipped: %v", err)
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}

	var strTab []string
	funcName := map[uint64]uint64{} // function id -> name string index
	locFunc := map[uint64]uint64{}  // location id -> function id
	type sample struct {
		locs []uint64
		vals []uint64
	}
	var got []sample
	var sampleTypes [][2]uint64

	pbMsg(raw).fields(func(num, wire int, v uint64, data []byte) {
		switch num {
		case 1: // sample_type
			var st [2]uint64
			pbMsg(data).fields(func(n, _ int, v uint64, _ []byte) { st[n-1] = v })
			sampleTypes = append(sampleTypes, st)
		case 2: // sample
			var s sample
			pbMsg(data).fields(func(n, _ int, _ uint64, d []byte) {
				switch n {
				case 1:
					s.locs = varints(d)
				case 2:
					s.vals = varints(d)
				}
			})
			got = append(got, s)
		case 4: // location
			var id, fid uint64
			pbMsg(data).fields(func(n, _ int, v uint64, d []byte) {
				switch n {
				case 1:
					id = v
				case 4:
					pbMsg(d).fields(func(ln, _ int, lv uint64, _ []byte) {
						if ln == 1 {
							fid = lv
						}
					})
				}
			})
			locFunc[id] = fid
		case 5: // function
			var id, name uint64
			pbMsg(data).fields(func(n, _ int, v uint64, _ []byte) {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			})
			funcName[id] = name
		case 6: // string_table
			strTab = append(strTab, string(data))
		}
	})

	if len(sampleTypes) != 2 {
		t.Fatalf("sample types = %d, want 2", len(sampleTypes))
	}
	if strTab[sampleTypes[0][0]] != "cycles" || strTab[sampleTypes[1][1]] != "nanoseconds" {
		t.Fatalf("sample types = %v (strings %v)", sampleTypes, strTab)
	}
	if len(got) != len(samples) {
		t.Fatalf("samples = %d, want %d", len(got), len(samples))
	}
	for i, s := range got {
		// Locations are leaf-first: reverse back to root-first names.
		var stack []string
		for j := len(s.locs) - 1; j >= 0; j-- {
			stack = append(stack, strTab[funcName[locFunc[s.locs[j]]]])
		}
		if !reflect.DeepEqual(stack, samples[i].Stack) {
			t.Errorf("sample %d stack = %v, want %v", i, stack, samples[i].Stack)
		}
		if s.vals[0] != uint64(samples[i].Cycles) || s.vals[1] != uint64(samples[i].Nanos) {
			t.Errorf("sample %d values = %v", i, s.vals)
		}
	}
}

func TestWritePprofDeterministic(t *testing.T) {
	samples := []PprofSample{
		{Stack: []string{"xen-arm", "hypercall", "light-trap"}, Cycles: 200, Nanos: 95},
		{Stack: []string{"xen-arm", "hypercall", "light-return"}, Cycles: 176, Nanos: 83},
	}
	var a, b bytes.Buffer
	if err := WritePprof(&a, samples); err != nil {
		t.Fatal(err)
	}
	if err := WritePprof(&b, samples); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("pprof output differs across identical invocations")
	}
}
