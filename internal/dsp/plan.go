package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"
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
type FFTPlan struct {
	n int

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

// fftScratch is the per-call mutable state of a plan. work is the
// transform's ping-pong buffer (n long on the mixed-radix path; 2m on the
// Bluestein path, the convolution followed by its sub-plan's ping-pong);
// buf holds the real-input and spectrum paths' bins.
type fftScratch struct {
	work []complex128
	buf  []complex128
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
	p := &FFTPlan{n: n}
	workLen := n
	if radices, ok := factor(n); ok {
		p.buildStages(radices)
	} else {
		if err := p.buildBluestein(); err != nil {
			return nil, err
		}
		workLen = 2 * p.m
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
		return &fftScratch{work: make([]complex128, workLen), buf: make([]complex128, n)}
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
	sub.transform(p.bhat, p.bhat, make([]complex128, m))
	return nil
}

// transform runs the unnormalized forward DFT of src into dst, which may
// alias src; src is not modified unless aliased. work is the plan's
// scratch (fftScratch.work), and must not overlap dst or src.
func (p *FFTPlan) transform(dst, src, work []complex128) {
	if p.sub != nil {
		p.bluestein(dst, src, work)
		return
	}
	if p.n == 1 {
		dst[0] = src[0]
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
			copy(work, src)
			in = work
		}
	}
	for i := range p.stages {
		st := &p.stages[i]
		switch st.radix {
		case 2:
			st.butterfly2(out, in)
		case 3:
			st.butterfly3(out, in)
		case 4:
			st.butterfly4(out, in)
		case 5:
			st.butterfly5(out, in)
		}
		in = out
		out, next = next, out
	}
}

// bluestein computes the chirp-z transform of src into dst (dst may alias
// src). The inverse DFT of the convolution runs as a conjugated forward
// transform, so the sub-plan needs only the one direction.
func (p *FFTPlan) bluestein(dst, src, work []complex128) {
	n, m := p.n, p.m
	conv, subWork := work[:m], work[m:2*m]
	for k := 0; k < n; k++ {
		conv[k] = src[k] * p.chirp[k]
	}
	for k := n; k < m; k++ {
		conv[k] = 0
	}
	p.sub.transform(conv, conv, subWork)
	for i, b := range p.bhat {
		conv[i] = cmplx.Conj(conv[i] * b)
	}
	p.sub.transform(conv, conv, subWork)
	invM := 1 / float64(m)
	for k := 0; k < n; k++ {
		dst[k] = scale(cmplx.Conj(conv[k]), invM) * p.chirp[k]
	}
}

// The butterflies below read butterfly p of s interleaved sub-transforms
// from in[q + s·(p + r·m)], r < radix, and write output k, multiplied by
// its twiddle, to out[q + s·(radix·p + k)].

func (st *stage) butterfly2(out, in []complex128) {
	m, s := st.m, st.s
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

func (st *stage) butterfly3(out, in []complex128) {
	const sin60 = 0.86602540378443864676372317075293618 // sin(2π/3)
	m, s := st.m, st.s
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

func (st *stage) butterfly4(out, in []complex128) {
	m, s := st.m, st.s
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

func (st *stage) butterfly5(out, in []complex128) {
	const (
		c1 = 0.30901699437494742410229341718281906  // cos(2π/5)
		c2 = -0.80901699437494742410229341718281906 // cos(4π/5)
		s1 = 0.95105651629515357211643933337938214  // sin(2π/5)
		s2 = 0.58778525229247312916870595463907277  // sin(4π/5)
	)
	m, s := st.m, st.s
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

// realBins computes the first n/2+1 DFT bins of x into sc.buf and returns
// them. len(x) must equal p.n.
func (p *FFTPlan) realBins(x []float64, sc *fftScratch) []complex128 {
	h := p.n / 2
	if p.n%2 != 0 {
		buf := sc.buf[:p.n]
		for i, v := range x {
			buf[i] = complex(v, 0)
		}
		p.transform(buf, buf, sc.work)
		return buf[:h+1]
	}

	// Pack x into z_j = x_{2j} + i*x_{2j+1} and transform with the
	// half-length plan, in place; its ping-pong borrows this plan's work,
	// which is at least as long as the half plan's.
	z := sc.buf[:h+1]
	for j := 0; j < h; j++ {
		z[j] = complex(x[2*j], x[2*j+1])
	}
	p.half.transform(z[:h], z[:h], sc.work)

	// Unpack: with Ze/Zo the DFTs of the even/odd samples,
	//   X_k     = Ze_k + e^{-2πik/n} Zo_k
	//   X_{h-k} = conj(Ze_k - e^{-2πik/n} Zo_k)
	// Pairs (k, h-k) are resolved together because the unpack overwrites
	// the packed values it reads.
	z0 := z[0]
	for k := 1; k <= h/2; k++ {
		zk, zc := z[k], cmplx.Conj(z[h-k])
		ze := scale(zk+zc, 0.5)
		zo := scale(zk-zc, 0.5)
		zo = complex(imag(zo), -real(zo)) // divide by i
		t := p.realTw[k] * zo
		z[k] = ze + t
		z[h-k] = cmplx.Conj(ze - t)
	}
	z[0] = complex(real(z0)+imag(z0), 0)
	z[h] = complex(real(z0)-imag(z0), 0)
	return z
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
	if sampleRate <= 0 {
		return fmt.Errorf("dsp: sample rate must be positive, got %g", sampleRate)
	}
	n := p.n
	sc := p.scratch.Get().(*fftScratch)
	bins := p.realBins(x, sc)
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

// growFloats returns s resized to n, reusing its backing array when it is
// large enough.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
