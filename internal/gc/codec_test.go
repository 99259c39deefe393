package gc

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"maxelerator/internal/circuit"
	"maxelerator/internal/label"
)

func sampleMaterial(t *testing.T, seqState bool) *Material {
	t.Helper()
	var c *circuit.Circuit
	if seqState {
		c = circuit.MustMAC(circuit.MACConfig{Width: 4, AccWidth: 8})
	} else {
		b := circuit.NewBuilder()
		x := b.GarblerInputs(3)
		y := b.EvaluatorInputs(3)
		b.Outputs(b.GEq(x, y), b.OR(x[0], y[0]))
		c = b.MustBuild()
	}
	g, err := NewGarbler(DefaultParams(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := g.Garble(c, GarbleOptions{GarblerInputs: make([]bool, c.NGarbler), TweakBase: 777})
	if err != nil {
		t.Fatal(err)
	}
	return &gb.Material
}

func TestMaterialCodecRoundTrip(t *testing.T) {
	for _, seq := range []bool{false, true} {
		m := sampleMaterial(t, seq)
		enc, err := MarshalMaterial(m)
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalMaterial(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("seq=%v: round trip mismatch", seq)
		}
	}
}

func TestMaterialCodecDeterministic(t *testing.T) {
	m := sampleMaterial(t, false)
	a, err := MarshalMaterial(m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalMaterial(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("encoding not deterministic")
	}
}

func TestMaterialCodecRejectsTruncation(t *testing.T) {
	m := sampleMaterial(t, true)
	enc, err := MarshalMaterial(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, 5, len(enc) / 2, len(enc) - 1} {
		if _, err := UnmarshalMaterial(enc[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
}

func TestMaterialCodecRejectsTrailingBytes(t *testing.T) {
	m := sampleMaterial(t, false)
	enc, err := MarshalMaterial(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalMaterial(append(enc, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestMaterialCodecRejectsBadVersion(t *testing.T) {
	m := sampleMaterial(t, false)
	enc, err := MarshalMaterial(m)
	if err != nil {
		t.Fatal(err)
	}
	enc[0] = 99
	if _, err := UnmarshalMaterial(enc); err == nil {
		t.Fatal("unknown version accepted")
	}
}

// hostileHeaders returns, for each of the four count fields of a valid
// encoding, that encoding with the count replaced by 2^32−1, by 1<<24,
// and by one more than the frame holds — plus the bare 13-byte header
// (version, tweak, table count) that needs no valid frame around it.
func hostileHeaders(t testing.TB) map[string][]byte {
	c := circuit.MustMAC(circuit.MACConfig{Width: 4, AccWidth: 8})
	g, err := NewGarbler(DefaultParams(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := g.Garble(c, GarbleOptions{GarblerInputs: make([]bool, c.NGarbler)})
	if err != nil {
		t.Fatal(err)
	}
	m := &gb.Material
	enc, err := MarshalMaterial(m)
	if err != nil {
		t.Fatal(err)
	}
	tablesAt := 1 + 8
	garblerAt := tablesAt + 4 + len(m.TableBlock)
	permAt := garblerAt + 4 + len(m.GarblerActive)*label.Size + 2*label.Size
	stateAt := permAt + 4 + (len(m.OutputPerm)+7)/8
	fields := []struct {
		name string
		at   int
		fits uint32 // the largest count the bytes after the field could hold
	}{
		{"tables", tablesAt, uint32(len(enc) - tablesAt - 4)},
		{"garbler labels", garblerAt, uint32((len(enc) - garblerAt - 4) / label.Size)},
		{"output perm bits", permAt, uint32((len(enc) - permAt - 4) * 8)},
		{"state labels", stateAt, uint32((len(enc) - stateAt - 4) / label.Size)},
	}
	out := map[string][]byte{
		"bare header/2^32-1": append(append([]byte{codecVersion}, make([]byte, 8)...), 0xff, 0xff, 0xff, 0xff),
		"bare header/1<<24":  append(append([]byte{codecVersion}, make([]byte, 8)...), 0, 0, 0, 1),
	}
	for _, f := range fields {
		for _, v := range []struct {
			name  string
			count uint32
		}{{"2^32-1", 1<<32 - 1}, {"1<<24", 1 << 24}, {"one more than fits", f.fits + 1}} {
			bad := append([]byte(nil), enc...)
			binary.LittleEndian.PutUint32(bad[f.at:], v.count)
			out[f.name+"/"+v.name] = bad
		}
	}
	return out
}

// TestMaterialCodecRejectsHugeCounts: a corrupt count must be refused
// before it sizes an allocation. Each count is bounded by the bytes that
// remain, so the parser's total allocation stays far below what the
// count asks for (before this bound a 13-byte frame cost 384 MiB).
func TestMaterialCodecRejectsHugeCounts(t *testing.T) {
	for name, enc := range hostileHeaders(t) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := UnmarshalMaterial(enc)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: parser allocated %d bytes on a %d-byte frame", name, grew, len(enc))
		}
	}
}

// TestUnmarshalMaterialAliasesFrame pins the ownership contract: the
// parsed table block is the frame's own bytes, not a copy.
func TestUnmarshalMaterialAliasesFrame(t *testing.T) {
	enc, err := MarshalMaterial(sampleMaterial(t, true))
	if err != nil {
		t.Fatal(err)
	}
	m, err := UnmarshalMaterial(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.TableBlock) == 0 || &m.TableBlock[0] != &enc[1+8+4] {
		t.Fatal("table block does not alias the table region of the frame")
	}
	if cap(m.TableBlock) != len(m.TableBlock) {
		t.Fatal("table block can be appended into the rest of the frame")
	}
}

func TestMaterialCodecPreservesEvaluationResult(t *testing.T) {
	// Full pipeline: garble, serialise, parse, evaluate.
	b := circuit.NewBuilder()
	x := b.GarblerInputs(8)
	y := b.EvaluatorInputs(8)
	b.OutputWord(b.Add(x, y))
	c := b.MustBuild()
	p := DefaultParams()
	g, err := NewGarbler(p, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := g.Garble(c, GarbleOptions{GarblerInputs: circuit.Uint64ToBits(57, 8)})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := MarshalMaterial(&gb.Material)
	if err != nil {
		t.Fatal(err)
	}
	m, err := UnmarshalMaterial(enc)
	if err != nil {
		t.Fatal(err)
	}
	yBits := circuit.Uint64ToBits(66, 8)
	active := make([]label.Label, 8)
	for i := range active {
		active[i] = gb.EvalPairs[i].Get(yBits[i])
	}
	res, err := Evaluate(p, c, m, active, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := circuit.BitsToUint64(res.Outputs); got != 57+66 {
		t.Fatalf("decoded sum = %d", got)
	}
}

func FuzzUnmarshalMaterial(f *testing.F) {
	m := &Material{
		TableBlock:    append([]byte{2}, make([]byte, 2*label.Size)...),
		NumTables:     1,
		GarblerActive: []label.Label{label.MustRandom()},
		OutputPerm:    []bool{true, false, true},
		TweakBase:     7,
	}
	seed, _ := MarshalMaterial(m)
	f.Add(seed)
	f.Add([]byte{codecVersion})
	f.Add([]byte{})
	for _, enc := range hostileHeaders(f) {
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalMaterial(data)
		if err != nil {
			return
		}
		// An accepted frame re-encodes, its own encoding is accepted, and
		// encoding is a fixed point from there on. Encodings are compared,
		// not the structs: a parsed Material aliases its input.
		enc, err := MarshalMaterial(m)
		if err != nil {
			t.Fatalf("accepted material failed to re-encode: %v", err)
		}
		back, err := UnmarshalMaterial(enc)
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		again, err := MarshalMaterial(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatal("re-encoding changed the material")
		}
		if len(enc) != len(data) {
			t.Fatalf("%d-byte frame re-encoded to %d bytes", len(data), len(enc))
		}
	})
}
