package core

import (
	"testing"

	"dynbw/internal/sim"
)

// TestPromises pins what each constructor promises, in the offline
// comparator's terms, and where the paper proves it. The other tests
// hold a policy to its Promise; this is the one place a bound's
// arithmetic is written out.
func TestPromises(t *testing.T) {
	const k = 4
	single := SingleParams{BA: 256, DO: 8, UO: 0.5, W: 16}
	multi := MultiParams{K: k, BO: 64, DO: 8}
	combined := CombinedParams{K: k, BA: 256, DO: 8, UO: 0.5, W: 16}
	tests := []struct {
		name   string
		policy sim.Promiser
		want   sim.Promise
	}{
		{
			// Theorem 6: delay 2·D_O (Lemma 3) within B_A, utilization
			// U_O/3 over some window of up to W+5·D_O ticks (Lemma 5).
			name:   "NewSingleSession",
			policy: MustNewSingleSession(single),
			want:   sim.Promise{DA: 2 * single.DO, BA: single.BA, UA: single.UO / 3, UW: single.W + 5*single.DO},
		},
		{
			// End of Section 2: the global definition keeps delay and
			// bandwidth; the paper proves the local-window floor for the
			// standard algorithm only (TestVariantsUtilizationStaysMeasured).
			name:   "NewGlobalUtilSingle",
			policy: MustNewGlobalUtilSingle(single),
			want:   sim.Promise{DA: 2 * single.DO, BA: single.BA},
		},
		{
			// Allocating low(t) itself breaks Claim 2's induction, and
			// with it the delay bound
			// (TestUnquantizedLosesDelayGuaranteeOnSteadyTraffic).
			name:   "NewUnquantizedSingle",
			policy: MustNewUnquantizedSingle(single),
			want:   sim.Promise{BA: single.BA},
		},
		{
			// Theorem 14: 4·B_O, plus a bit per session for the
			// rounded-up shares.
			name:   "NewPhased",
			policy: MustNewPhased(multi),
			want:   sim.Promise{DA: 2 * multi.DO, BA: 4*multi.BO + k},
		},
		{
			// Theorem 17: 5·B_O, plus the same rounding.
			name:   "NewContinuous",
			policy: MustNewContinuous(multi),
			want:   sim.Promise{DA: 2 * multi.DO, BA: 5*multi.BO + k},
		},
		{
			// Section 4 with B_O = B_A/8: 7·B_O with the phased inner
			// algorithm; delay 2·D_O plus 2 ticks of GLOBAL RESET handoff;
			// Lemma 5's floor on the aggregate.
			name:   "NewCombined",
			policy: MustNewCombined(combined),
			want: sim.Promise{DA: 2*combined.DO + 2, BA: 7*(combined.BA/8) + k,
				UA: combined.UO / 3, UW: combined.W + 5*combined.DO},
		},
		{
			// Section 4 with the continuous inner algorithm: 8·B_O.
			name:   "NewCombinedContinuous",
			policy: MustNewCombinedContinuous(combined),
			want: sim.Promise{DA: 2*combined.DO + 2, BA: 8*(combined.BA/8) + k,
				UA: combined.UO / 3, UW: combined.W + 5*combined.DO},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.policy.Promise(); got != tc.want {
				t.Errorf("Promise() = %+v, want %+v", got, tc.want)
			}
		})
	}
}
