package server

import (
	"sync"
	"testing"
	"time"
)

// acquireBoth runs two acquisitions of n slots at once, each released as
// soon as it is granted, over many rounds. Taking slots one at a time,
// the two could each hold part of the pool and wait on each other
// forever; all-or-nothing grants must let every round finish promptly.
func acquireBoth(t *testing.T, n int, acquire func() (func(), bool)) {
	t.Helper()
	for round := 0; round < 500; round++ {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if release, ok := acquire(); ok {
					release()
				}
			}()
		}
		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: two batches of %d slots deadlocked", round, n)
		}
	}
}

func TestPoolWideBatchesDoNotDeadlock(t *testing.T) {
	const pool = 4
	s := New(Config{Workers: pool, TenantCells: pool})
	t.Run("work", func(t *testing.T) {
		acquireBoth(t, pool, func() (func(), bool) { return s.acquireWork(pool, nil) })
	})
	t.Run("tenant", func(t *testing.T) {
		ten := s.ten.get("wide")
		acquireBoth(t, pool, func() (func(), bool) { return ten.cells.acquire(pool, nil) })
	})
}

func TestSemaphoreAbortReturnsNothingHeld(t *testing.T) {
	sem := newSemaphore(3)
	holdA, ok := sem.acquire(2, nil)
	if !ok {
		t.Fatal("first acquisition refused")
	}
	// A 3-slot batch cannot fit; aborting it must leave no slot taken.
	done := make(chan struct{})
	close(done)
	if _, ok := sem.acquire(3, done); ok {
		t.Fatal("3 slots granted while 2 of 3 were held")
	}
	holdA()
	release, ok := sem.acquire(3, nil)
	if !ok {
		t.Fatal("full pool not granted after release")
	}
	release()
}

func TestSemaphoreServesInArrivalOrder(t *testing.T) {
	sem := newSemaphore(2)
	hold, _ := sem.acquire(2, nil)
	order := make(chan int, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if release, ok := sem.acquire(2, nil); ok {
			order <- 2
			release()
		}
	}()
	for sem.queued() == 0 { // the wide batch queues first
		time.Sleep(time.Millisecond)
	}
	go func() {
		defer wg.Done()
		if release, ok := sem.acquire(1, nil); ok {
			order <- 1
			release()
		}
	}()
	for sem.queued() < 2 {
		time.Sleep(time.Millisecond)
	}
	hold()
	wg.Wait()
	if first := <-order; first != 2 {
		t.Fatalf("the narrow batch overtook the wide one queued before it")
	}
}

// queued reports how many acquisitions are waiting.
func (s *semaphore) queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waiters.Len()
}
