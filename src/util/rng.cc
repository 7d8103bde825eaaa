#include "rng.hh"

#include "serde.hh"

namespace rose {

namespace {

uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

void
Rng::reseed(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
    haveSpare_ = false;
}

uint64_t
Rng::uniformInt(uint64_t n)
{
    // Rejection-free modulo is fine for simulation noise streams.
    return next() % n;
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xa02e1c5d87f3b911ULL);
}

void
Rng::saveState(StateWriter &w) const
{
    for (uint64_t s : s_)
        w.u64(s);
    w.boolean(haveSpare_);
    w.f64(spare_);
}

void
Rng::restoreState(StateReader &r)
{
    for (uint64_t &s : s_)
        s = r.u64();
    haveSpare_ = r.boolean();
    spare_ = r.f64();
}

} // namespace rose
