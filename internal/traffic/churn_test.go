package traffic

import (
	"reflect"
	"testing"
)

// TestChurnSessions: a Churn realises the same sessions every time, in
// arrival order, each open for its trace's length, all arriving before
// the horizon; a bad process or an unknown traffic model is an error.
func TestChurnSessions(t *testing.T) {
	for _, kind := range []string{"cbr", "mmpp", "heavytail"} {
		c := Churn{Seed: 3, Horizon: 256, MeanGap: 4, MeanHold: 16, Rate: 8, Traffic: kind}
		a, err := c.Sessions()
		if err != nil {
			t.Fatal(err)
		}
		b, _ := c.Sessions()
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: %d sessions, realised again equal %v", kind, len(a), reflect.DeepEqual(a, b))
		}
		for i, s := range a {
			if s.Arr < 1 || s.Arr >= c.Horizon || s.End <= s.Arr || len(s.Bits) != int(s.End-s.Arr) {
				t.Fatalf("%s: session %d = [%d, %d) with %d ticks of bits", kind, i, s.Arr, s.End, len(s.Bits))
			}
			if i > 0 && s.Arr <= a[i-1].Arr {
				t.Fatalf("%s: session %d arrives at %d, after one at %d", kind, i, s.Arr, a[i-1].Arr)
			}
		}
	}
	for _, c := range []Churn{
		{Horizon: 256, MeanGap: 0, MeanHold: 16, Rate: 8, Traffic: "cbr"},
		{Horizon: 256, MeanGap: 4, MeanHold: 16, Rate: 0, Traffic: "cbr"},
		{Horizon: 256, MeanGap: 4, MeanHold: 16, Rate: 8, Traffic: "nope"},
	} {
		if _, err := c.Sessions(); err == nil {
			t.Errorf("%+v accepted", c)
		}
	}
}
