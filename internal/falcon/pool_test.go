package falcon

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestSignerPoolConcurrentSignVerify(t *testing.T) {
	sk := testKey(t, 256)
	pool, err := NewSignerPool(sk, BaseBitsliced, []byte("pool-seed"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Size() != 4 {
		t.Fatalf("Size() = %d, want 4", pool.Size())
	}
	const goroutines, perG = 8, 3
	var wg sync.WaitGroup
	errc := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			msg := []byte{byte(g), 'm', 's', 'g'}
			for i := 0; i < perG; i++ {
				sig, err := pool.Sign(msg)
				if err != nil {
					errc <- err
					return
				}
				// Interleave verification with other goroutines' signing.
				if err := pool.Verify(msg, sig); err != nil {
					errc <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if pool.Attempts() == 0 {
		t.Fatal("no signing attempts recorded")
	}
}

func TestSignerPoolShardsUseDistinctStreams(t *testing.T) {
	sk := testKey(t, 256)
	// Two shards, round-robin: consecutive signatures of the same message
	// come from different shards and must use different salts.
	pool, err := NewSignerPool(sk, BaseBitsliced, []byte("seed"), 2)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("same message")
	a, err := pool.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Salt, b.Salt) {
		t.Fatal("shards produced identical salts: seed domain separation broken")
	}
	// Determinism: a fresh pool with the same master seed reproduces the
	// same first signature.
	pool2, err := NewSignerPool(sk, BaseBitsliced, []byte("seed"), 2)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := pool2.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Encode(), a2.Encode()) {
		t.Fatal("same master seed did not reproduce the same signature")
	}
}

func TestSignerPoolVerifyRejectsTampered(t *testing.T) {
	sk := testKey(t, 256)
	pool, err := NewSignerPool(sk, BaseBitsliced, []byte("seed"), 1)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := pool.Sign([]byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Verify([]byte("other payload"), sig); err == nil {
		t.Fatal("tampered message accepted")
	}
	if err := pool.Verify([]byte("payload"), sig); err != nil {
		t.Fatal(err)
	}
}

// TestSignerPoolClose pins the lifecycle gate: Sign after Close fails
// with ErrPoolClosed, while verification (stateless) keeps working.
func TestSignerPoolClose(t *testing.T) {
	sk := testKey(t, 256)
	pool, err := NewSignerPool(sk, BaseBitsliced, []byte("close-seed"), 2)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("last words")
	sig, err := pool.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	pool.Close()
	pool.Close() // idempotent
	if _, err := pool.Sign(msg); err != ErrPoolClosed {
		t.Fatalf("Sign after Close: %v, want ErrPoolClosed", err)
	}
	if err := pool.Verify(msg, sig); err != nil {
		t.Fatalf("Verify after Close: %v", err)
	}
	if pool.Attempts() == 0 {
		t.Fatal("Attempts ledger unreadable after Close")
	}
}

// TestSignerPoolConvolveOwnsNoGoroutines: signers own no background
// goroutines, BaseConvolve ones included (their convolution layer
// refills synchronously), so a closed pool leaves the goroutine count
// where it found it.
func TestSignerPoolConvolveOwnsNoGoroutines(t *testing.T) {
	sk := testKey(t, 256)
	before := runtime.NumGoroutine()
	pool, err := NewSignerPool(sk, BaseConvolve, []byte("convolve-goroutines"), 4)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("no background refills")
	sig, err := pool.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Verify(msg, sig); err != nil {
		t.Fatal(err)
	}
	pool.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive after Close, started with %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
