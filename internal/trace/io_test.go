package trace

import (
	"bytes"
	"strings"
	"testing"

	"dynbw/internal/bw"
)

func TestCSVRoundTrip(t *testing.T) {
	tr := MustNew([]bw.Bits{0, 5, 12, 0, 7})
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("round-trip length %d, want %d", got.Len(), tr.Len())
	}
	for i := bw.Tick(0); i < tr.Len(); i++ {
		if got.At(i) != tr.At(i) {
			t.Errorf("tick %d = %d, want %d", i, got.At(i), tr.At(i))
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{name: "bad fields", in: "tick,bits\n0,1,2\n"},
		{name: "bad tick", in: "tick,bits\nx,1\n"},
		{name: "bad bits", in: "tick,bits\n0,x\n"},
		{name: "out of order", in: "tick,bits\n1,5\n"},
		{name: "negative bits", in: "tick,bits\n0,-4\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(tt.in)); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestReadCSVNoHeader(t *testing.T) {
	got, err := ReadCSV(strings.NewReader("0,3\n1,4\n"))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if got.Len() != 2 || got.At(0) != 3 || got.At(1) != 4 {
		t.Errorf("parsed %v", got.Arrivals())
	}
}

func TestMulti(t *testing.T) {
	a := MustNew([]bw.Bits{1, 2, 3})
	b := MustNew([]bw.Bits{4, 5, 6})
	m := MustNewMulti([]*Trace{a, b})
	if m.K() != 2 || m.Len() != 3 {
		t.Fatalf("K=%d Len=%d", m.K(), m.Len())
	}
	if at0, at1 := m.Session(0).At(1), m.Session(1).At(1); at0 != 2 || at1 != 5 {
		t.Errorf("sessions at tick 1 = %d, %d", at0, at1)
	}
	agg := m.Aggregate()
	if agg.At(0) != 5 || agg.At(2) != 9 {
		t.Errorf("Aggregate = %v", agg.Arrivals())
	}
	if m.Session(0) != a {
		t.Error("Session(0) is not the original trace")
	}
}

func TestNewMultiErrors(t *testing.T) {
	if _, err := NewMulti(nil); err == nil {
		t.Error("empty session list should error")
	}
	a := MustNew([]bw.Bits{1})
	b := MustNew([]bw.Bits{1, 2})
	if _, err := NewMulti([]*Trace{a, b}); err == nil {
		t.Error("mismatched lengths should error")
	}
}
