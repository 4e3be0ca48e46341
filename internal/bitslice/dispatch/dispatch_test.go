package dispatch

import "testing"

func TestChoose(t *testing.T) {
	avx2 := []Backend{AVX2}
	cases := []struct {
		override string
		detected []Backend
		want     Backend
		wantErr  bool
	}{
		{"", avx2, AVX2, false},
		{"", nil, Portable, false},
		{"off", avx2, Portable, false},
		{"portable", avx2, Portable, false},
		{"none", avx2, Portable, false},
		{"avx2", avx2, AVX2, false},
		{"avx2", nil, Portable, true},
		// The retired AVX-512 spelling is an unknown value: the best
		// available backend serves and the mismatch is reported.
		{"avx512", avx2, AVX2, true},
		{"avx512", nil, Portable, true},
		{"bogus", avx2, AVX2, true},
	}
	for _, tc := range cases {
		got, msg := choose(tc.override, tc.detected)
		if got != tc.want {
			t.Errorf("choose(%q, %v) = %s, want %s", tc.override, tc.detected, got, tc.want)
		}
		if (msg != "") != tc.wantErr {
			t.Errorf("choose(%q, %v) message = %q, wantErr=%v", tc.override, tc.detected, msg, tc.wantErr)
		}
	}
}

func TestForceRoundTrip(t *testing.T) {
	before := Active()
	restore, err := Force(Portable)
	if err != nil {
		t.Fatalf("Force(Portable): %v", err)
	}
	if Active() != Portable {
		t.Fatalf("after Force(Portable): active = %s", Active())
	}
	restore()
	if Active() != before {
		t.Fatalf("after restore: active = %s, want %s", Active(), before)
	}

	// Forcing every detected backend must succeed; an undetected one
	// must fail without disturbing the selection.
	for _, b := range Detected() {
		r, err := Force(b)
		if err != nil {
			t.Fatalf("Force(%s): %v", b, err)
		}
		if Active() != b {
			t.Fatalf("after Force(%s): active = %s", b, Active())
		}
		r()
	}
	if Active() != before {
		t.Fatalf("after sweep: active = %s, want %s", Active(), before)
	}
}

func TestSnapshot(t *testing.T) {
	info := Snapshot()
	if info.Backend != Active().String() {
		t.Errorf("snapshot backend %q != active %s", info.Backend, Active())
	}
	if len(info.Available) == 0 || info.Available[0] != "portable" {
		t.Errorf("available must lead with portable: %v", info.Available)
	}
}
