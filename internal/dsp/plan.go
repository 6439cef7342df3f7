package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"
	"sync/atomic"
)

// FFTPlan precomputes everything a transform of one length needs — the
// factorization and per-stage twiddle factors of the mixed-radix path, the
// chirp table and pre-transformed convolution kernel of the Bluestein
// path, and the packing twiddles of the real-input path — so the
// per-window hot path of the authentication pipeline performs no trig and
// no table allocation.
//
// A plan is immutable after construction and safe for concurrent use: the
// only mutable state is a pool of scratch buffers, checked out per call.
// Plans are cheap to share; PlanFor caches one per length.
//
// One engine transforms a batch of b signals of the plan's length,
// interleaved (sample i of signal j at i·b+j): a Stockham stage over s
// interleaved sub-transforms is the same butterfly over s·b of them, so
// a single signal is the batch of one, and a batch costs one pass over
// each stage's twiddles.
type FFTPlan struct {
	n int
	// workLen is the ping-pong length a batch of one needs: n on the
	// mixed-radix path, 2m on the Bluestein path.
	workLen int

	// Mixed-radix machinery (5-smooth lengths: every power of two, every
	// pipeline window, and the sub-transforms of the Bluestein
	// convolution). One stage per factor of n over {4, 2, 3, 5}; nil for
	// other lengths.
	stages []stage

	// Bluestein machinery (other lengths): FFT(x)_k is expressed as a
	// convolution with a chirp, computed with mixed-radix FFTs of the
	// power-of-two size m. bhat is the forward-transformed convolution
	// kernel — fixed per length, so the per-call work is two sub-FFTs.
	m     int
	sub   *FFTPlan
	chirp []complex128
	bhat  []complex128

	// Real-input machinery (even lengths): n real samples are packed into
	// n/2 complex values, transformed with the half-length plan, and
	// unpacked with realTw[k] = exp(-2πik/n) — conjugate symmetry means
	// the full spectrum costs one half-length transform.
	half   *FFTPlan
	realTw []complex128

	scratch sync.Pool
}

// stage is one pass of the self-sorting (Stockham) decimation-in-frequency
// transform: s interleaved sub-transforms of length radix·m each become
// radix·s interleaved sub-transforms of length m. tw[(radix-1)·p + k-1] is
// exp(-2πi·p·k/(radix·m)), the twiddle of output k of butterfly p.
type stage struct {
	radix, m, s int
	tw          []complex128
}

// fftScratch is the per-call mutable state of a plan, sized for a batch
// of b signals. work is the transform's ping-pong buffer (b·workLen: the
// convolution followed by its sub-plan's ping-pong on the Bluestein path);
// buf holds the bins.
type fftScratch struct {
	work []complex128
	buf  []complex128
}

// Engine counters: engineCalls counts spectra and batched peak searches,
// one per call however many signals it carries, and bluesteinPlans the
// Bluestein plans built. Plain atomics: they allocate nothing and cost
// one uncontended add per call.
var engineCalls, bluesteinPlans atomic.Uint64

// Counts returns the engine calls run and the Bluestein plans built by
// this process so far.
func Counts() (calls, plans uint64) {
	return engineCalls.Load(), bluesteinPlans.Load()
}

// getScratch checks out a scratch sized for a batch of b signals; a
// larger batch than the pooled one grows it once.
func (p *FFTPlan) getScratch(b int) *fftScratch {
	sc := p.scratch.Get().(*fftScratch)
	if len(sc.buf) < b*p.n {
		sc.work = make([]complex128, b*p.workLen)
		sc.buf = make([]complex128, b*p.n)
	}
	return sc
}

// planCache maps length -> *FFTPlan. Plans are immutable, so sharing one
// across goroutines is safe.
var planCache sync.Map

// PlanFor returns the shared, cached plan for transforms of length n.
func PlanFor(n int) (*FFTPlan, error) {
	if n <= 0 {
		return nil, ErrEmptyInput
	}
	if p, ok := planCache.Load(n); ok {
		return p.(*FFTPlan), nil
	}
	p, err := NewFFTPlan(n)
	if err != nil {
		return nil, err
	}
	actual, _ := planCache.LoadOrStore(n, p)
	return actual.(*FFTPlan), nil
}

// NewFFTPlan builds an uncached plan for transforms of length n. Its
// Bluestein and half-length sub-plans still come from the shared cache.
func NewFFTPlan(n int) (*FFTPlan, error) {
	if n <= 0 {
		return nil, ErrEmptyInput
	}
	p := &FFTPlan{n: n, workLen: n}
	if radices, ok := factor(n); ok {
		p.buildStages(radices)
	} else {
		if err := p.buildBluestein(); err != nil {
			return nil, err
		}
		p.workLen = 2 * p.m
	}
	if n%2 == 0 {
		half, err := PlanFor(n / 2)
		if err != nil {
			return nil, err
		}
		p.half = half
		p.realTw = make([]complex128, n/2)
		for k := range p.realTw {
			p.realTw[k] = cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(n)))
		}
	}
	p.scratch.New = func() any {
		return &fftScratch{work: make([]complex128, p.workLen), buf: make([]complex128, n)}
	}
	return p, nil
}

// Len returns the transform length the plan was built for.
func (p *FFTPlan) Len() int { return p.n }

// factor splits n into radices from {4, 2, 3, 5} — fours first, then at
// most one two — and reports whether n is 5-smooth.
func factor(n int) ([]int, bool) {
	var radices []int
	for _, r := range []int{4, 2, 3, 5} {
		for n%r == 0 {
			radices = append(radices, r)
			n /= r
		}
	}
	return radices, n == 1
}

// buildStages precomputes each stage's twiddles directly from the angle.
func (p *FFTPlan) buildStages(radices []int) {
	length, s := p.n, 1
	for _, r := range radices {
		m := length / r
		st := stage{radix: r, m: m, s: s, tw: make([]complex128, 0, (r-1)*m)}
		for j := 0; j < m; j++ {
			for k := 1; k < r; k++ {
				st.tw = append(st.tw, cmplx.Exp(complex(0, -2*math.Pi*float64(j*k)/float64(length))))
			}
		}
		p.stages = append(p.stages, st)
		length, s = m, s*r
	}
}

// buildBluestein precomputes the chirp table and the forward-transformed
// convolution kernel.
func (p *FFTPlan) buildBluestein() error {
	n := p.n
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	sub, err := PlanFor(m)
	if err != nil {
		return err
	}
	bluesteinPlans.Add(1)
	p.m = m
	p.sub = sub
	p.chirp = make([]complex128, n)
	for k := 0; k < n; k++ {
		// k^2 mod 2n avoids precision loss for large k.
		kk := (int64(k) * int64(k)) % int64(2*n)
		p.chirp[k] = cmplx.Exp(complex(0, -math.Pi*float64(kk)/float64(n)))
	}
	p.bhat = make([]complex128, m)
	for k := 0; k < n; k++ {
		p.bhat[k] = cmplx.Conj(p.chirp[k])
	}
	for k := 1; k < n; k++ {
		p.bhat[m-k] = cmplx.Conj(p.chirp[k])
	}
	sub.transform(p.bhat, p.bhat, make([]complex128, m), 1)
	return nil
}

// transform runs the unnormalized forward DFT of a batch of b
// interleaved signals from src into dst, which may alias src; src is not
// modified unless aliased. work is the plan's scratch (fftScratch.work,
// b·workLen long), and must not overlap dst or src.
func (p *FFTPlan) transform(dst, src, work []complex128, b int) {
	if p.sub != nil {
		p.bluestein(dst, src, work, b)
		return
	}
	if p.n == 1 {
		copy(dst[:b], src[:b])
		return
	}
	// Stages ping-pong between dst and work, starting on whichever side
	// makes the last one land in dst. An odd stage count would start by
	// writing dst, so an aliased src is first copied to work.
	in := src
	out, next := work, dst
	if len(p.stages)%2 == 1 {
		out, next = dst, work
		if &dst[0] == &src[0] {
			copy(work, src[:p.n*b])
			in = work
		}
	}
	for i := range p.stages {
		st := &p.stages[i]
		s := st.s * b
		switch st.radix {
		case 2:
			st.butterfly2(out, in, s)
		case 3:
			st.butterfly3(out, in, s)
		case 4:
			st.butterfly4(out, in, s)
		case 5:
			st.butterfly5(out, in, s)
		}
		in = out
		out, next = next, out
	}
}

// bluestein computes the chirp-z transform of a batch of b interleaved
// signals from src into dst (dst may alias src). The inverse DFT of the
// convolution runs as a conjugated forward transform, so the sub-plan
// needs only the one direction.
func (p *FFTPlan) bluestein(dst, src, work []complex128, b int) {
	n, m := p.n, p.m
	conv, subWork := work[:m*b], work[m*b:2*m*b]
	for k := 0; k < n; k++ {
		for j := k * b; j < (k+1)*b; j++ {
			conv[j] = src[j] * p.chirp[k]
		}
	}
	clear(conv[n*b:])
	p.sub.transform(conv, conv, subWork, b)
	for i, bh := range p.bhat {
		for j := i * b; j < (i+1)*b; j++ {
			conv[j] = cmplx.Conj(conv[j] * bh)
		}
	}
	p.sub.transform(conv, conv, subWork, b)
	invM := 1 / float64(m)
	for k := 0; k < n; k++ {
		for j := k * b; j < (k+1)*b; j++ {
			dst[j] = scale(cmplx.Conj(conv[j]), invM) * p.chirp[k]
		}
	}
}

// The butterflies below read butterfly p of s interleaved sub-transforms
// from in[q + s·(p + r·m)], r < radix, and write output k, multiplied by
// its twiddle, to out[q + s·(radix·p + k)]. s is the stage's own count
// times the batch: the twiddle depends on p alone.

func (st *stage) butterfly2(out, in []complex128, s int) {
	m := st.m
	sm := s * m
	for p := 0; p < m; p++ {
		w1 := st.tw[p]
		i, o := s*p, 2*s*p
		for q := 0; q < s; q++ {
			a0, a1 := in[i+q], in[i+q+sm]
			out[o+q] = a0 + a1
			out[o+q+s] = (a0 - a1) * w1
		}
	}
}

func (st *stage) butterfly3(out, in []complex128, s int) {
	const sin60 = 0.86602540378443864676372317075293618 // sin(2π/3)
	m := st.m
	sm := s * m
	for p := 0; p < m; p++ {
		w1, w2 := st.tw[2*p], st.tw[2*p+1]
		i, o := s*p, 3*s*p
		for q := 0; q < s; q++ {
			a0, a1, a2 := in[i+q], in[i+q+sm], in[i+q+2*sm]
			t := a1 + a2
			mid := a0 - scale(t, 0.5)
			d := scale(a1-a2, sin60)
			rot := complex(imag(d), -real(d)) // -i·d
			out[o+q] = a0 + t
			out[o+q+s] = (mid + rot) * w1
			out[o+q+2*s] = (mid - rot) * w2
		}
	}
}

func (st *stage) butterfly4(out, in []complex128, s int) {
	m := st.m
	sm := s * m
	for p := 0; p < m; p++ {
		w1, w2, w3 := st.tw[3*p], st.tw[3*p+1], st.tw[3*p+2]
		i, o := s*p, 4*s*p
		for q := 0; q < s; q++ {
			a0, a1, a2, a3 := in[i+q], in[i+q+sm], in[i+q+2*sm], in[i+q+3*sm]
			t0, t1 := a0+a2, a0-a2
			t2, d := a1+a3, a1-a3
			t3 := complex(imag(d), -real(d)) // -i·(a1-a3)
			out[o+q] = t0 + t2
			out[o+q+s] = (t1 + t3) * w1
			out[o+q+2*s] = (t0 - t2) * w2
			out[o+q+3*s] = (t1 - t3) * w3
		}
	}
}

func (st *stage) butterfly5(out, in []complex128, s int) {
	const (
		c1 = 0.30901699437494742410229341718281906  // cos(2π/5)
		c2 = -0.80901699437494742410229341718281906 // cos(4π/5)
		s1 = 0.95105651629515357211643933337938214  // sin(2π/5)
		s2 = 0.58778525229247312916870595463907277  // sin(4π/5)
	)
	m := st.m
	sm := s * m
	for p := 0; p < m; p++ {
		w := st.tw[4*p : 4*p+4]
		i, o := s*p, 5*s*p
		for q := 0; q < s; q++ {
			a0, a1, a2, a3, a4 := in[i+q], in[i+q+sm], in[i+q+2*sm], in[i+q+3*sm], in[i+q+4*sm]
			b1, b2 := a1+a4, a2+a3
			d1, d2 := a1-a4, a2-a3
			m1 := a0 + scale(b1, c1) + scale(b2, c2)
			m2 := a0 + scale(b1, c2) + scale(b2, c1)
			e1 := scale(d1, s1) + scale(d2, s2)
			e2 := scale(d1, s2) - scale(d2, s1)
			n1 := complex(imag(e1), -real(e1)) // -i·e1
			n2 := complex(imag(e2), -real(e2))
			out[o+q] = a0 + b1 + b2
			out[o+q+s] = (m1 + n1) * w[0]
			out[o+q+2*s] = (m2 + n2) * w[1]
			out[o+q+3*s] = (m2 - n2) * w[2]
			out[o+q+4*s] = (m1 - n1) * w[3]
		}
	}
}

// scale multiplies z by a real factor: two multiplications, where z*f
// would run a full complex product against f+0i.
func scale(z complex128, f float64) complex128 {
	return complex(real(z)*f, imag(z)*f)
}

// bins computes bins 0..n/2 of the DFT of each of the b real signals in
// x (signal j is x[j·n:(j+1)·n]) into sc.buf, interleaved: bin k of
// signal j at k·b+j. It is one engine call for the whole batch.
func (p *FFTPlan) bins(x []float64, b int, sc *fftScratch) []complex128 {
	engineCalls.Add(1)
	n, h := p.n, p.n/2
	if n%2 != 0 {
		buf := sc.buf[:n*b]
		for j := 0; j < b; j++ {
			for i, v := range x[j*n : (j+1)*n] {
				buf[i*b+j] = complex(v, 0)
			}
		}
		p.transform(buf, buf, sc.work, b)
		return buf[:(h+1)*b]
	}

	// Pack each signal with the half-length plan's stride and transform
	// the batch in place; its ping-pong borrows this plan's work, which is
	// at least as long as the half plan's.
	z := sc.buf[:(h+1)*b]
	for j := 0; j < b; j++ {
		pack(z[j:], x[j*n:(j+1)*n], b)
	}
	p.half.transform(z[:h*b], z[:h*b], sc.work, b)
	for j := 0; j < b; j++ {
		p.unpack(z[j:], b)
	}
	return z
}

// pack writes z_j = x_{2j} + i*x_{2j+1} to z[j·stride].
func pack(z []complex128, x []float64, stride int) {
	for i, o := 0, 0; i+1 < len(x); i, o = i+2, o+stride {
		z[o] = complex(x[i], x[i+1])
	}
}

// unpack turns the half-length transform Z of a packed real signal, held
// at z[k·stride], into bins 0..n/2 of the signal's DFT, in place. With
// Ze/Zo the DFTs of the even/odd samples,
//
//	X_k     = Ze_k + e^{-2πik/n} Zo_k
//	X_{h-k} = conj(Ze_k - e^{-2πik/n} Zo_k)
//
// Pairs (k, h-k) are resolved together because the unpack overwrites the
// packed values it reads.
func (p *FFTPlan) unpack(z []complex128, stride int) {
	h := p.n / 2
	z0 := z[0]
	for k := 1; k <= h/2; k++ {
		zk, zc := z[k*stride], cmplx.Conj(z[(h-k)*stride])
		ze := scale(zk+zc, 0.5)
		zo := scale(zk-zc, 0.5)
		zo = complex(imag(zo), -real(zo)) // divide by i
		t := p.realTw[k] * zo
		z[k*stride] = ze + t
		z[(h-k)*stride] = cmplx.Conj(ze - t)
	}
	z[0] = complex(real(z0)+imag(z0), 0)
	z[h*stride] = complex(real(z0)-imag(z0), 0)
}

// checkRate refuses a sample rate that is not a positive finite number;
// NaN fails the comparison, so it is refused too.
func checkRate(r float64) error {
	if !(r > 0) || math.IsInf(r, 1) {
		return fmt.Errorf("dsp: sample rate must be positive and finite, got %g", r)
	}
	return nil
}

// AmplitudeSpectrumInto computes the one-sided amplitude spectrum of a
// real signal sampled at sampleRate Hz into out, reusing out's slices when
// they have capacity. Non-DC (and non-Nyquist) bins are scaled by 2/N so
// amplitudes correspond to sinusoid amplitudes in the signal. The caller
// owns out; the plan only borrows it for the call. The bins come from the
// real-input path, so an even-length window costs one half-length
// transform.
func (p *FFTPlan) AmplitudeSpectrumInto(out *Spectrum, x []float64, sampleRate float64) error {
	if len(x) != p.n {
		return fmt.Errorf("dsp: plan is for length %d, got %d", p.n, len(x))
	}
	if err := checkRate(sampleRate); err != nil {
		return err
	}
	n := p.n
	sc := p.getScratch(1)
	bins := p.bins(x, 1, sc)
	out.Amplitudes = growFloats(out.Amplitudes, len(bins))
	out.Frequencies = growFloats(out.Frequencies, len(bins))
	for k, v := range bins {
		amp := cmplx.Abs(v) / float64(n)
		if k != 0 && !(n%2 == 0 && k == n/2) {
			amp *= 2
		}
		out.Amplitudes[k] = amp
		out.Frequencies[k] = float64(k) * sampleRate / float64(n)
	}
	p.scratch.Put(sc)
	return nil
}

// amplitude is AmplitudeSpectrumInto's value at bin k, the same
// expression (its loop keeps it inline): |v|/n, doubled except at DC and
// Nyquist, whose energy is not split with a mirror bin.
func (p *FFTPlan) amplitude(v complex128, k int) float64 {
	n := p.n
	amp := cmplx.Abs(v) / float64(n)
	if k != 0 && !(n%2 == 0 && k == n/2) {
		amp *= 2
	}
	return amp
}

// PeaksInto computes the spectral peaks of len(out) signals of the plan's
// length, back to back in x (signal j is x[j·n:(j+1)·n]) and sampled at
// sampleRate Hz, through one engine call. out[j] is bit for bit what the
// amplitudes and frequencies of AmplitudeSpectrumInto give signal j under
// the paper's peak rule: the first largest non-DC bin, then the first
// largest bin outside its two neighbours.
func (p *FFTPlan) PeaksInto(out []SpectralPeaks, x []float64, sampleRate float64) error {
	if len(x) != len(out)*p.n {
		return fmt.Errorf("dsp: plan is for %d signals of length %d, got %d samples", len(out), p.n, len(x))
	}
	if err := checkRate(sampleRate); err != nil {
		return err
	}
	if len(out) == 0 {
		return nil
	}
	b := len(out)
	sc := p.getScratch(b)
	z := p.bins(x, b, sc)
	for j := range out {
		out[j] = p.peaks(z[j:], b, sampleRate)
	}
	p.scratch.Put(sc)
	return nil
}

// The peak search ranks bins by key = re²+im², which needs no divide and
// no sqrt, and computes the exact amplitude only of bins whose key is
// within peakSlack of the top one. The key is |v|² within 3 ulps (two
// squares and a sum), and hypot gives |v| within about one; the /n and ×2
// of an amplitude are common to every bin but Nyquist, whose key is
// scaled by ¼ as its amplitude is not doubled. A bin whose key is below
// top·(1-peakSlack) therefore has an amplitude below the top-key bin's,
// and so below the winner's, by a margin a million times the rounding:
// it can neither win nor tie. Keys lose that relative precision only
// near the subnormal range, below minTopKey, and a NaN or infinite key
// says nothing; in those cases, and whenever five keys cannot settle a
// search, the search falls back to the exact amplitude of every bin.
const (
	peakSlack = 1e-9
	minTopKey = 1e-280
)

// topKeys holds the five largest keys of a signal, largest first, with
// their bins. An empty slot has key -1, below every key. Five settle both
// searches unless keys tie: the secondary one skips at most three bins.
type topKeys struct {
	key [5]float64
	bin [5]int
}

// add inserts a key larger than the smallest held.
func (t *topKeys) add(key float64, k int) {
	i := len(t.key) - 1
	for ; i > 0 && key > t.key[i-1]; i-- {
		t.key[i], t.bin[i] = t.key[i-1], t.bin[i-1]
	}
	t.key[i], t.bin[i] = key, k
}

// peaks is the peak search over one signal's bins 0..n/2, held at
// z[k·stride].
func (p *FFTPlan) peaks(z []complex128, stride int, sampleRate float64) SpectralPeaks {
	h := p.n / 2
	if h == 0 {
		return SpectralPeaks{} // DC alone
	}
	last := h
	if p.n%2 == 0 {
		last = h - 1 // the Nyquist bin, below
	}
	top := topKeys{key: [5]float64{-1, -1, -1, -1, -1}}
	finite := true
	for k := 1; k <= last; k++ {
		v := z[k*stride]
		if key := real(v)*real(v) + imag(v)*imag(v); key > top.key[4] {
			top.add(key, k)
		} else if key != key {
			finite = false
		}
	}
	if last < h {
		v := z[h*stride]
		if key := (real(v)*real(v) + imag(v)*imag(v)) * 0.25; key > top.key[4] {
			top.add(key, h)
		} else if key != key {
			finite = false
		}
	}
	// An infinite or overflowed key goes to the top; a NaN one is flagged.
	if finite && top.key[0] <= math.MaxFloat64 && top.key[0] > minTopKey {
		if out, ok := p.peaksFromTop(z, stride, &top, sampleRate); ok {
			return out
		}
	}
	return p.scanPeaks(z, stride, sampleRate)
}

// peaksFromTop settles both searches from the five largest keys. It
// reports false when more bins may lie within the slack of a search's
// top key than the five can vouch for: every bin outside them has a key
// no larger than the fifth.
func (p *FFTPlan) peaksFromTop(z []complex128, stride int, t *topKeys, sampleRate float64) (SpectralPeaks, bool) {
	thresh := t.key[0] * (1 - peakSlack)
	if t.key[4] >= thresh {
		return SpectralPeaks{}, false
	}
	// Among the candidates, the largest amplitude wins and a tie goes to
	// the lower bin: the first-index rule of a scan in bin order.
	best, peak := -1, 0.0
	for i := 0; i < len(t.key) && t.key[i] >= thresh; i++ {
		k := t.bin[i]
		if amp := p.amplitude(z[k*stride], k); best == -1 || amp > peak || amp == peak && k < best {
			best, peak = k, amp
		}
	}
	out := SpectralPeaks{Peak: peak, PeakF: float64(best) * sampleRate / float64(p.n)}

	// The secondary search's top key is the first held outside best±1;
	// five held bins cannot all lie in those three.
	i := 0
	for t.key[i] >= 0 && t.bin[i] >= best-1 && t.bin[i] <= best+1 {
		i++
	}
	if t.key[i] < 0 {
		return out, true // every bin is held, and none is outside best±1
	}
	thresh = t.key[i] * (1 - peakSlack)
	if !(t.key[i] > minTopKey) || t.key[4] >= thresh {
		return SpectralPeaks{}, false
	}
	second, peak2 := -1, 0.0
	for ; i < len(t.key) && t.key[i] >= thresh; i++ {
		k := t.bin[i]
		if k >= best-1 && k <= best+1 {
			continue
		}
		if amp := p.amplitude(z[k*stride], k); second == -1 || amp > peak2 || amp == peak2 && k < second {
			second, peak2 = k, amp
		}
	}
	out.Peak2, out.Peak2F = peak2, float64(second)*sampleRate/float64(p.n)
	return out, true
}

// scanPeaks is the exact search: the peak rule over every bin's
// amplitude in bin order, NaNs included.
func (p *FFTPlan) scanPeaks(z []complex128, stride int, sampleRate float64) SpectralPeaks {
	h := p.n / 2
	best, peak := -1, 0.0
	for k := 1; k <= h; k++ {
		if amp := p.amplitude(z[k*stride], k); best == -1 || amp > peak {
			best, peak = k, amp
		}
	}
	out := SpectralPeaks{Peak: peak, PeakF: float64(best) * sampleRate / float64(p.n)}
	second, peak2 := -1, 0.0
	for k := 1; k <= h; k++ {
		if k >= best-1 && k <= best+1 {
			continue
		}
		if amp := p.amplitude(z[k*stride], k); second == -1 || amp > peak2 {
			second, peak2 = k, amp
		}
	}
	if second != -1 {
		out.Peak2, out.Peak2F = peak2, float64(second)*sampleRate/float64(p.n)
	}
	return out
}

// growFloats returns s resized to n, reusing its backing array when it is
// large enough.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
