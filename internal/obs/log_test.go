package obs

import (
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestRateLimitedSuppresses(t *testing.T) {
	var b strings.Builder
	rl := NewRateLimited(slog.New(slog.NewTextHandler(&b, nil)), time.Hour)
	for i := 0; i < 5; i++ {
		rl.Log(slog.LevelWarn, "io", "read failed", "err", "boom")
	}
	rl.Log(slog.LevelWarn, "protocol", "bad frame")

	out := b.String()
	if got := strings.Count(out, "read failed"); got != 1 {
		t.Errorf("key io emitted %d times, want 1:\n%s", got, out)
	}
	if got := strings.Count(out, "bad frame"); got != 1 {
		t.Errorf("key protocol emitted %d times, want 1:\n%s", got, out)
	}
}

func TestRateLimitedReportsSuppressedCount(t *testing.T) {
	var b strings.Builder
	rl := NewRateLimited(slog.New(slog.NewTextHandler(&b, nil)), 30*time.Millisecond)
	for i := 0; i < 4; i++ {
		rl.Log(slog.LevelWarn, "io", "read failed")
	}
	time.Sleep(40 * time.Millisecond)
	rl.Log(slog.LevelWarn, "io", "read failed")
	if !strings.Contains(b.String(), "suppressed=3") {
		t.Errorf("missing suppressed count:\n%s", b.String())
	}
}

// TestRateLimitedNilSafe: a nil logger builds the nil *RateLimited, whose
// methods TestNilReceiversNoPanic runs.
func TestRateLimitedNilSafe(t *testing.T) {
	if rl := NewRateLimited(nil, time.Second); rl != nil {
		t.Error("nil logger should produce nil RateLimited")
	}
}
