/**
 * @file
 * Hashed perceptron conditional-branch direction predictor (Tarjan &
 * Skadron, TACO 2005) — the direction predictor Table II specifies.
 *
 * A set of weight tables is indexed by hashes of the branch PC
 * merged with segments of the global outcome history; the signed sum
 * of the selected weights gives the prediction, and training bumps
 * the weights on mispredictions or low-confidence predictions.
 */

#ifndef CHIRP_BRANCH_PERCEPTRON_HH
#define CHIRP_BRANCH_PERCEPTRON_HH

#include <cstdint>
#include <vector>

#include "util/types.hh"

namespace chirp
{

/** Hashed-perceptron configuration. */
struct PerceptronConfig
{
    unsigned numTables = 8;       //!< history-segment tables
    unsigned tableEntries = 1024; //!< weights per table (power of two)
    unsigned historySegBits = 8;  //!< global-history bits per table
    int weightMax = 127;          //!< weight saturation (int8)
};

/** The predictor. */
class HashedPerceptron
{
  public:
    explicit HashedPerceptron(const PerceptronConfig &config = {});

    /** Predict the direction of the branch at @p pc. */
    bool predict(Addr pc) const;

    /**
     * Train with the resolved outcome and update the global history.
     * Call exactly once per conditional branch, after predict().
     */
    void update(Addr pc, bool taken);

    /**
     * predict() then update() with one weight sum: the prediction
     * and the training decision read the same, unchanged weights and
     * history, so the sum is computed once.
     * @return the prediction made before training.
     */
    bool predictAndUpdate(Addr pc, bool taken);

    /** Clear weights and history. */
    void reset();

    /** Current global outcome history (tests). */
    std::uint64_t history() const { return history_; }

  private:
    int sumFor(Addr pc) const;
    /** update() given the prediction's weight sum @p sum. */
    void train(Addr pc, bool taken, int sum);
    std::size_t indexFor(Addr pc, unsigned table) const;

    PerceptronConfig config_;
    int theta_;
    std::vector<std::int8_t> weights_; //!< numTables x tableEntries
    std::vector<std::int8_t> bias_;    //!< per-PC bias table
    std::uint64_t history_ = 0;
};

} // namespace chirp

#endif // CHIRP_BRANCH_PERCEPTRON_HH
