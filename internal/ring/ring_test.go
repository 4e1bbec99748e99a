package ring

import (
	"math/rand"
	"testing"
)

func TestPushPopFIFO(t *testing.T) {
	var d Deque[int]
	for i := 0; i < 100; i++ {
		d.PushBack(i)
	}
	for i := 0; i < 100; i++ {
		if got := d.PopFront(); got != i {
			t.Fatalf("PopFront = %d, want %d", got, i)
		}
	}
	if d.Len() != 0 {
		t.Fatalf("Len = %d after drain", d.Len())
	}
}

func TestPushFront(t *testing.T) {
	var d Deque[int]
	d.PushBack(2)
	d.PushFront(1)
	d.PushFront(0)
	for i := 0; i < 3; i++ {
		if got := d.Front(); got != i {
			t.Fatalf("Front = %d, want %d", got, i)
		}
		if got := d.PopFront(); got != i {
			t.Fatalf("PopFront = %d, want %d", got, i)
		}
	}
}

// TestAgainstSlice cross-checks the deque against a reference slice
// implementation under random front/back operations.
func TestAgainstSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var d Deque[int]
	var ref []int
	for op := 0; op < 20000; op++ {
		switch rng.Intn(4) {
		case 0:
			v := rng.Int()
			d.PushBack(v)
			ref = append(ref, v)
		case 1:
			v := rng.Int()
			d.PushFront(v)
			ref = append([]int{v}, ref...)
		case 2:
			if len(ref) > 0 {
				got := d.PopFront()
				if got != ref[0] {
					t.Fatalf("op %d: PopFront = %d, want %d", op, got, ref[0])
				}
				ref = ref[1:]
			}
		case 3:
			if len(ref) > 0 {
				if got := d.Front(); got != ref[0] {
					t.Fatalf("op %d: Front = %d, want %d", op, got, ref[0])
				}
			}
		}
		if d.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, d.Len(), len(ref))
		}
	}
	// Draining from the front yields every element in the reference order.
	for i, want := range ref {
		if got := d.PopFront(); got != want {
			t.Fatalf("drain %d: PopFront = %d, want %d", i, got, want)
		}
	}
}

func TestPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"PopFront": func() { new(Deque[int]).PopFront() },
		"Front":    func() { new(Deque[int]).Front() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on empty deque did not panic", name)
				}
			}()
			fn()
		}()
	}
}
