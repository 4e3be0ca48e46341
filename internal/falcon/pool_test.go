package falcon

import (
	"bytes"
	"context"
	"errors"
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

// TestSignerPoolSignsOnIdleSigner: a request takes whichever signer is
// idle, so while one signer is held, SignContext completes on the other
// instead of queueing behind the busy one.
func TestSignerPoolSignsOnIdleSigner(t *testing.T) {
	sk := testKey(t, 256)
	pool, err := NewSignerPool(sk, BaseBitsliced, []byte("idle-seed"), 2)
	if err != nil {
		t.Fatal(err)
	}
	held := <-pool.free
	defer func() { pool.free <- held }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	msg := []byte("one signer busy")
	for i := 0; i < 3; i++ {
		sig, err := pool.SignContext(ctx, msg)
		if err != nil {
			t.Fatalf("sign %d with one signer held: %v", i, err)
		}
		if err := pool.Verify(msg, sig); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSignerPoolCancelWhileAllBusy: with every signer held, a context
// that expires while waiting, or one cancelled before the call, returns
// ctx.Err(); afterwards every signer still serves.
func TestSignerPoolCancelWhileAllBusy(t *testing.T) {
	sk := testKey(t, 256)
	pool, err := NewSignerPool(sk, BaseBitsliced, []byte("busy-seed"), 2)
	if err != nil {
		t.Fatal(err)
	}
	held := []*Signer{<-pool.free, <-pool.free}
	msg := []byte("every signer busy")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := pool.SignContext(ctx, msg); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wait past the deadline: err = %v, want DeadlineExceeded", err)
	}
	cancelled, stop := context.WithCancel(context.Background())
	stop()
	if _, err := pool.SignContext(cancelled, msg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: err = %v, want Canceled", err)
	}
	before := make(map[*Signer]uint64)
	for _, s := range held {
		before[s] = s.Attempts
		pool.free <- s
	}
	// The free list is first in, first out: sequential signatures visit
	// every signer once.
	for i := 0; i < pool.Size(); i++ {
		sig, err := pool.Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		if err := pool.Verify(msg, sig); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range held {
		if s.Attempts == before[s] {
			t.Fatalf("signer %d never signed after the cancelled waits", i)
		}
	}
}

// TestSignerPoolAttemptsMatchSigners: the pool's attempt counter equals
// the sum of its signers' own counters after concurrent signing.
func TestSignerPoolAttemptsMatchSigners(t *testing.T) {
	sk := testKey(t, 256)
	pool, err := NewSignerPool(sk, BaseBitsliced, []byte("attempts-seed"), 3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if _, err := pool.Sign([]byte{byte(g), byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	var sum uint64
	for i := 0; i < pool.Size(); i++ {
		sum += (<-pool.free).Attempts
	}
	if got := pool.Attempts(); got != sum || sum < 18 {
		t.Fatalf("Attempts() = %d, signers sum to %d (18 signatures)", got, sum)
	}
}
