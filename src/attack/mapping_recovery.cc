#include "attack/mapping_recovery.hh"

#include "sim/logging.hh"

namespace leaky::attack {

using dram::gf2::BitBasis;

namespace {

/** Alternating read pairs per timing measurement (2N reads; the min
 *  latency of the steady-state reads is the statistic, which filters
 *  refresh/RFM/back-off inflation from any defense). */
constexpr std::uint32_t kSamplesPerPair = 4;
static_assert(kSamplesPerPair >= 2,
              "need at least two alternation samples per pair");
/** Constructed full-range probes per validation pass. */
constexpr std::uint32_t kValidationPairs = 12;
constexpr std::uint32_t kMaxRounds = 64;
/** Cap on pairwise-XOR refinement probes in the row phase. */
constexpr std::uint32_t kMaxRefineTests = 64;

std::uint32_t
log2OfPow2(std::uint64_t v)
{
    std::uint32_t bits = 0;
    while (v > 1) {
        v >>= 1;
        bits += 1;
    }
    return bits;
}

} // namespace

MappingRecovery::MappingRecovery(sys::MemoryPort &port,
                                 MappingRecoveryConfig cfg)
    : cfg_(std::move(cfg)), loop_(port, *this), rng_(cfg_.seed)
{
    LEAKY_ASSERT(!cfg_.windows.empty(), "need a window schedule");
    // Datasheet knowledge only: the module's capacity and geometry
    // counts. Which physical bits feed which coordinate — the mapping
    // function itself — is what the probing below has to discover.
    const dram::MappingFunction &mapper = port.mapper();
    total_bits_ = log2OfPow2(mapper.capacityBytes() /
                             dram::MappingFunction::kLineBytes);
    const dram::Organization &org = mapper.org();
    bank_bits_ = log2OfPow2(mapper.channels()) + log2OfPow2(org.ranks) +
                 log2OfPow2(org.bankgroups) +
                 log2OfPow2(org.banks_per_group);
    row_bits_ = log2OfPow2(org.rows);
    col_bits_ = log2OfPow2(org.columns);
    LEAKY_ASSERT(bank_bits_ + row_bits_ + col_bits_ == total_bits_,
                 "geometry does not fill the mapped address space");
}

void
MappingRecovery::start(std::function<void()> on_done)
{
    on_done_ = std::move(on_done);
    phase_ = Phase::kCollect;
    startCollectRound();
}

std::uint32_t
MappingRecovery::windowBits() const
{
    std::uint32_t w = cfg_.windows[window_idx_];
    if (w == 0 || w > total_bits_)
        w = total_bits_;
    return w;
}

std::uint64_t
MappingRecovery::randomLine()
{
    return rng_.below(std::uint64_t{1} << total_bits_);
}

std::uint64_t
MappingRecovery::randomWindowDelta()
{
    const std::uint64_t bound = std::uint64_t{1} << windowBits();
    return rng_.range(1, bound - 1);
}

std::uint64_t
MappingRecovery::randomCombination(
    const std::vector<std::uint64_t> &basis)
{
    std::uint64_t v = 0;
    for (std::uint64_t row : basis)
        if (rng_() & 1u)
            v ^= row;
    return v;
}

// ----------------------------------------------------- timing oracle

void
MappingRecovery::measurePair(std::uint64_t line_a, std::uint64_t line_b,
                             std::function<void(bool)> cb)
{
    pair_[0] = line_a * dram::MappingFunction::kLineBytes;
    pair_[1] = line_b * dram::MappingFunction::kLineBytes;
    reads_done_ = 0;
    min_latency_ = 0;
    measure_cb_ = std::move(cb);
    result_.probes += 1;
    loop_.restart();
    measureStep();
}

void
MappingRecovery::measureStep()
{
    // a, b, a, b, ... — same bank + different row conflicts on EVERY
    // access; anything else row-hits after the first touch. The first
    // two reads only prime the row buffers (whatever the previous pair
    // left open); the min over the steady-state reads is the
    // statistic, so a refresh / RFM / PRAC back-off landing on some
    // iterations cannot fake a conflict.
    if (reads_done_ >= 2 * kSamplesPerPair) {
        const bool conflict =
            min_latency_ >= cfg_.classifier.conflict_min;
        // Hand off via a local: the callback usually starts the next
        // measurement, which overwrites measure_cb_.
        const auto cb = std::move(measure_cb_);
        cb(conflict);
        return;
    }
    loop_.arm();
}

std::optional<std::uint64_t>
MappingRecovery::step()
{
    return pair_[reads_done_++ & 1];
}

void
MappingRecovery::onRead(Tick, Tick, Tick latency)
{
    result_.accesses += 1;
    if (reads_done_ > 2 && (min_latency_ == 0 || latency < min_latency_))
        min_latency_ = latency;
    measureStep();
}

// ------------------------------------------- phase 1: bank functions

void
MappingRecovery::startCollectRound()
{
    if (result_.rounds >= kMaxRounds) {
        // Budget exhausted: report failure (bank_solved stays false).
        finish();
        return;
    }
    result_.rounds += 1;
    round_pairs_ = 0;
    span_rank_at_round_start_ = conflict_span_.rank();
    collectNext();
}

void
MappingRecovery::collectNext()
{
    if (round_pairs_ >= cfg_.pairs_per_round) {
        finishCollectRound();
        return;
    }
    round_pairs_ += 1;
    const std::uint64_t a = randomLine();
    const std::uint64_t d = randomWindowDelta();
    measurePair(a, a ^ d, [this, d](bool conflict) {
        if (conflict) {
            // d preserved the bank set and flipped the row: a sample
            // of the bank functions' null space.
            conflict_span_.insert(d);
            if (raw_conflicts_.size() < 16)
                raw_conflicts_.push_back(d);
        }
        collectNext();
    });
}

void
MappingRecovery::finishCollectRound()
{
    const std::uint32_t w = windowBits();
    candidate_ = dram::gf2::annihilator(conflict_span_, w);
    if (candidate_.size() == bank_bits_ && !raw_conflicts_.empty()) {
        startValidation();
        return;
    }
    // Wrong annihilator rank. Too large: the span is not saturated
    // yet (keep probing) — unless it stopped growing, in which case
    // the bank functions' in-window projections collapse and only a
    // wider window can separate them. Too small: bank functions tap
    // bits outside the window; widen immediately.
    const bool stalled =
        conflict_span_.rank() == span_rank_at_round_start_;
    stalled_rounds_ = stalled ? stalled_rounds_ + 1 : 0;
    if (candidate_.size() < bank_bits_ ||
        (stalled && stalled_rounds_ >= 2))
        widenWindow();
    startCollectRound();
}

void
MappingRecovery::widenWindow()
{
    if (window_idx_ + 1 < cfg_.windows.size())
        window_idx_ += 1;
    stalled_rounds_ = 0;
}

void
MappingRecovery::startValidation()
{
    phase_ = Phase::kValidate;
    // Full-space kernel of the candidate: every direction the
    // candidate claims to preserve the bank — including all the high
    // bits the collection window never exercised.
    BitBasis cand_span;
    for (std::uint64_t m : candidate_)
        cand_span.insert(m);
    candidate_kernel_ = dram::gf2::annihilator(cand_span, total_bits_);
    validation_done_ = 0;
    validation_failed_ = 0;
    validateNext();
}

void
MappingRecovery::validateNext()
{
    if (validation_done_ >= kValidationPairs) {
        finishValidation();
        return;
    }
    validation_done_ += 1;
    // d = (known row-flipping conflict difference) XOR (random
    // candidate-kernel direction). The candidate predicts a conflict;
    // if the true bank function taps a bit of h outside the window,
    // the pair lands in different banks and reads fast — caught here.
    // (h could cancel the row flip only if row(h) == row(d0) exactly,
    // a ~2^-row_bits coincidence.)
    const std::uint64_t d0 =
        raw_conflicts_[rng_.below(raw_conflicts_.size())];
    std::uint64_t d = d0 ^ randomCombination(candidate_kernel_);
    if (d == 0)
        d = d0;
    const std::uint64_t a = randomLine();
    measurePair(a, a ^ d, [this](bool conflict) {
        if (!conflict)
            validation_failed_ += 1;
        validateNext();
    });
}

void
MappingRecovery::finishValidation()
{
    if (validation_failed_ == 0) {
        result_.bank_solved = true;
        result_.final_window = windowBits();
        result_.bank_masks.clear();
        for (std::uint64_t m : candidate_)
            result_.bank_masks.push_back(
                m << dram::MappingFunction::kLineShift);
        startClassify();
        return;
    }
    // The candidate mispredicts full-range pairs: some bank function
    // taps a bit the window hides. Climb the schedule and keep
    // collecting (the conflict span so far remains valid).
    result_.validation_failures += validation_failed_;
    widenWindow();
    phase_ = Phase::kCollect;
    startCollectRound();
}

// -------------------------------------------- phase 2: row functions

void
MappingRecovery::startClassify()
{
    phase_ = Phase::kClassify;
    // Directions that provably preserve the bank set; each either
    // flips the row (conflict) or is column-only (fast).
    BitBasis bank_span;
    for (std::uint64_t m : result_.bank_masks)
        bank_span.insert(m >> dram::MappingFunction::kLineShift);
    null_basis_ = dram::gf2::annihilator(bank_span, total_bits_);
    classify_idx_ = 0;
    row_flippers_.clear();
    column_span_.clear();
    classifyNext();
}

void
MappingRecovery::classifyNext()
{
    if (classify_idx_ >= null_basis_.size()) {
        startRefine();
        return;
    }
    const std::uint64_t v = null_basis_[classify_idx_];
    classify_idx_ += 1;
    const std::uint64_t a = randomLine();
    measurePair(a, a ^ v, [this, v](bool conflict) {
        if (conflict)
            row_flippers_.push_back(v);
        else
            column_span_.insert(v);
        classifyNext();
    });
}

void
MappingRecovery::startRefine()
{
    phase_ = Phase::kRefine;
    refine_i_ = 0;
    refine_j_ = 1;
    refine_tests_ = 0;
    refineNext();
}

void
MappingRecovery::refineNext()
{
    // The column kernel is a subspace, but the echelon basis of
    // null(bank) need not align with it: two row-flipping basis
    // vectors can differ by a pure column direction (mappings that
    // fold row bits into the same masks). Probe pairwise XORs of the
    // flippers until the kernel reaches its known dimension.
    while (column_span_.rank() < col_bits_ &&
           refine_tests_ < kMaxRefineTests &&
           refine_i_ + 1 < row_flippers_.size()) {
        if (refine_j_ >= row_flippers_.size()) {
            refine_i_ += 1;
            refine_j_ = refine_i_ + 1;
            continue;
        }
        const std::uint64_t v =
            row_flippers_[refine_i_] ^ row_flippers_[refine_j_];
        refine_j_ += 1;
        if (column_span_.contains(v))
            continue;
        refine_tests_ += 1;
        const std::uint64_t a = randomLine();
        measurePair(a, a ^ v, [this, v](bool conflict) {
            if (!conflict)
                column_span_.insert(v);
            refineNext();
        });
        return;
    }
    finish();
}

void
MappingRecovery::finish()
{
    phase_ = Phase::kDone;
    if (result_.bank_solved) {
        result_.column_dirs.clear();
        for (std::uint64_t v : column_span_.rows())
            result_.column_dirs.push_back(
                v << dram::MappingFunction::kLineShift);
        // Row functions = functionals vanishing on the column kernel,
        // modulo the bank functions (indistinguishable under a
        // conflict oracle). Solved when the learned column kernel has
        // full (datasheet) dimension.
        result_.row_solved = column_span_.rank() == col_bits_;
        BitBasis bank_span;
        for (std::uint64_t m : result_.bank_masks)
            bank_span.insert(m >> dram::MappingFunction::kLineShift);
        BitBasis rows;
        result_.row_masks.clear();
        for (std::uint64_t m :
             dram::gf2::annihilator(column_span_, total_bits_)) {
            const std::uint64_t reduced = bank_span.reduce(m);
            if (reduced != 0 && rows.insert(reduced))
                result_.row_masks.push_back(
                    reduced << dram::MappingFunction::kLineShift);
        }
    }
    if (on_done_)
        on_done_();
}

} // namespace leaky::attack
