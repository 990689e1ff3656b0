package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

func randomTrace(n int, seed int64) Trace {
	r := rand.New(rand.NewSource(seed))
	tr := make(Trace, n)
	for i := range tr {
		op := Read
		if r.Intn(4) == 0 {
			op = Write
		}
		tr[i] = Record{Op: op, Addr: r.Uint64() >> 20, Time: uint64(i)}
	}
	return tr
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := randomTrace(1000, 1)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tr) {
		t.Fatalf("round trip length %d, want %d", len(got), len(tr))
	}
	for i := range tr {
		if got[i] != tr[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], tr[i])
		}
	}
}

func TestBinaryEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty round trip produced %d records", len(got))
	}
}

func TestBinaryBadMagic(t *testing.T) {
	_, err := ReadBinary(strings.NewReader("NOTATRACEFILE...."))
	if !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestBinaryTruncated(t *testing.T) {
	tr := randomTrace(10, 2)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(raw[:len(raw)-5])); err == nil {
		t.Error("truncated file decoded without error")
	}
}

func TestBinaryInvalidOp(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, Trace{{Op: Read, Addr: 1, Time: 1}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[16] = 99 // first record's op byte (8 magic + 8 count)
	if _, err := ReadBinary(bytes.NewReader(raw)); err == nil {
		t.Error("invalid op decoded without error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := randomTrace(200, 3)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "op,addr,time\n") {
		t.Error("CSV missing header")
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tr) {
		t.Fatalf("round trip length %d, want %d", len(got), len(tr))
	}
	for i := range tr {
		if got[i] != tr[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], tr[i])
		}
	}
}

func TestCSVTolerantParsing(t *testing.T) {
	in := "op,addr,time\nR,4096,0\n\nW, 8192 , 1\nr,100,2\n1,200,3\n"
	got, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d records, want 4", len(got))
	}
	if got[0] != (Record{Op: Read, Addr: 4096, Time: 0}) {
		t.Errorf("record 0 = %+v", got[0])
	}
	if got[1].Op != Write || got[1].Addr != 8192 {
		t.Errorf("record 1 = %+v", got[1])
	}
	if got[3].Op != Write {
		t.Errorf("numeric op form not accepted: %+v", got[3])
	}
}

func TestCSVErrors(t *testing.T) {
	cases := []string{
		"X,1,2\n",
		"R,notanumber,2\n",
		"R,1\n",
		"R,1,nan\n",
	}
	for _, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("input %q parsed without error", in)
		}
	}
}

func TestOpString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Error("Op string forms wrong")
	}
	r := Record{Op: Write, Addr: 123, Time: 456}
	if r.String() != "W,123,456" {
		t.Errorf("Record.String = %q", r.String())
	}
}

func TestTraceHelpers(t *testing.T) {
	tr := Trace{
		{Op: Read, Addr: 0},
		{Op: Read, Addr: PageSize},
		{Op: Read, Addr: PageSize + 8},
	}
	tr.Stamp()
	if tr[2].Time != 2 {
		t.Error("Stamp did not assign indices")
	}
	pages := tr.Pages()
	if len(pages) != 2 {
		t.Errorf("Pages = %d distinct, want 2", len(pages))
	}
}
