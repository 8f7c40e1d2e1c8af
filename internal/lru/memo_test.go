package lru

import (
	"context"
	"errors"
	"testing"
)

// TestMemoCancelledLeaderNotCached: a context error is dropped (the next
// caller recomputes), any other error is cached like a value.
func TestMemoCancelledLeaderNotCached(t *testing.T) {
	m := NewMemo[string, int](0)
	if _, err := m.Get(context.Background(), "k", func() (int, error) { return 0, context.Canceled }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if m.Len() != 0 {
		t.Fatalf("cancelled build cached: Len = %d", m.Len())
	}
	if v, err := m.Get(context.Background(), "k", func() (int, error) { return 7, nil }); err != nil || v != 7 {
		t.Fatalf("rebuild = %d, %v", v, err)
	}
	boom := errors.New("boom")
	m.Get(context.Background(), "bad", func() (int, error) { return 0, boom })
	if _, err := m.Get(context.Background(), "bad", func() (int, error) { return 1, nil }); err != boom {
		t.Fatalf("non-context error not cached: %v", err)
	}
	if m.Builds() != 3 {
		t.Fatalf("Builds = %d, want 3", m.Builds())
	}
}

// TestMemoWaiterTakesOver: a live waiter behind a leader that gets
// cancelled becomes the new leader; a waiter whose own context fires
// stops waiting.
func TestMemoWaiterTakesOver(t *testing.T) {
	m := NewMemo[string, int](0)
	leading, release := make(chan struct{}), make(chan struct{})
	done := make(chan error)
	go func() {
		_, err := m.Get(context.Background(), "k", func() (int, error) {
			close(leading)
			<-release
			return 0, context.DeadlineExceeded
		})
		done <- err
	}()
	<-leading
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Get(gone, "k", func() (int, error) { return 0, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v", err)
	}
	waiter := make(chan int)
	go func() {
		v, _ := m.Get(context.Background(), "k", func() (int, error) { return 9, nil })
		waiter <- v
	}()
	close(release)
	if err := <-done; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("leader err = %v", err)
	}
	if v := <-waiter; v != 9 {
		t.Fatalf("live waiter got %d, want its own build's 9", v)
	}
}
