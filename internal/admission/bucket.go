package admission

import (
	"sync"
	"time"
)

// TokenBucket is a standard refill-on-read token bucket: Allow spends
// one token when available, tokens accrue at rate per second up to
// burst. It backs the per-tenant rate limits in internal/registry.
// Safe for concurrent use; the zero value is not usable.
type TokenBucket struct {
	rate  float64 // tokens per second
	burst float64 // capacity and initial balance
	now   func() time.Time

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// NewTokenBucket returns a bucket refilling at rate tokens/second with
// the given capacity, starting full. rate and burst must be positive
// (callers gate the "disabled" case themselves). now may be nil for
// time.Now.
func NewTokenBucket(rate, burst float64, now func() time.Time) *TokenBucket {
	if now == nil {
		now = time.Now
	}
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{rate: rate, burst: burst, now: now, tokens: burst, last: now()}
}

// refillLocked advances the balance to the current clock reading.
func (b *TokenBucket) refillLocked(now time.Time) {
	if elapsed := now.Sub(b.last); elapsed > 0 {
		b.tokens += b.rate * elapsed.Seconds()
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
}

// Allow spends one token if the bucket holds at least one.
func (b *TokenBucket) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(b.now())
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// NextIn reports how long until one token will be available — the
// Retry-After hint for a rate-limited rejection. Zero when a token is
// already there.
func (b *TokenBucket) NextIn() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(b.now())
	if b.tokens >= 1 {
		return 0
	}
	if b.rate <= 0 {
		return time.Hour // never refills; cap the hint at something finite
	}
	return time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
}
