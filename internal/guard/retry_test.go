package guard

import "testing"

func TestEscalate(t *testing.T) {
	cases := []struct {
		v       int64
		attempt int
		want    int64
	}{
		{100, 0, 100},
		{100, 1, 200},
		{100, 3, 800},
		{0, 5, 0},
		{1 << 62, 1, 1 << 62},       // saturates
		{(1 << 62) - 1, 4, 1 << 62}, // saturates mid-way
		{3, 61, 1 << 62},            // deep escalation cannot overflow
	}
	for _, c := range cases {
		if got := Escalate(c.v, c.attempt); got != c.want {
			t.Errorf("Escalate(%d, %d) = %d, want %d", c.v, c.attempt, got, c.want)
		}
	}
}
