/**
 * @file
 * The unit of work the serving front door accepts: a small op-program
 * over encrypted registers -- the multiply/rotate/rescale/add chains
 * of real server-side workloads (encrypted_stats' rotate-and-add
 * sums, matrix_vector's hoisted diagonal products) expressed as data
 * so a submitter thread can execute it against its own Evaluator.
 *
 * A Request owns its input ciphertexts and a register-based program:
 * registers 0..N-1 are the inputs, every value-producing op appends a
 * new register, and `returns()` marks which register the Handle
 * yields (default: the last one produced). Programs are built once by
 * the client thread and consumed by the server; `clone()` deep-copies
 * a request so the same program can be replayed for reference runs.
 */

#pragma once

#include <vector>

#include "ckks/ciphertext.hpp"
#include "core/logging.hpp"

namespace fideslib::serve
{

/** One program step. Register fields index the request's registers. */
struct Op
{
    enum class Kind : u32
    {
        Add,            //!< dst = reg[a] + reg[b]
        Sub,            //!< dst = reg[a] - reg[b]
        Multiply,       //!< dst = reg[a] * reg[b] (HMult, relinearized)
        Square,         //!< dst = reg[a]^2 (HSquare)
        Rotate,         //!< dst = rotate(reg[a], rot) slots left
        Rescale,        //!< in place: drop reg[a]'s top limb
        MultiplyScalar, //!< in place: reg[a] *= scalar (at Delta)
        Bootstrap,      //!< dst = bootstrap(reg[a]) (needs a server
                        //!< configured with a Bootstrapper)
    };

    Kind kind;
    u32 dst = 0;       //!< result register (value-producing kinds)
    u32 a = 0;         //!< first operand register
    u32 b = 0;         //!< second operand register (binary kinds)
    i64 rot = 0;       //!< rotation amount (Rotate)
    double scalar = 0; //!< scalar constant (MultiplyScalar)
};

class Request
{
  public:
    Request() = default;

    Request(const Request &) = delete;
    Request &operator=(const Request &) = delete;
    Request(Request &&) = default;
    Request &operator=(Request &&) = default;

    /** Adds an input ciphertext; returns its register index. */
    u32
    input(ckks::Ciphertext ct)
    {
        FIDES_ASSERT(ops_.empty());
        inputs_.push_back(std::move(ct));
        numRegs_ = static_cast<u32>(inputs_.size());
        return numRegs_ - 1;
    }

    u32
    add(u32 a, u32 b)
    {
        return record({Op::Kind::Add, 0, checked(a), checked(b)});
    }
    u32
    sub(u32 a, u32 b)
    {
        return record({Op::Kind::Sub, 0, checked(a), checked(b)});
    }
    u32
    multiply(u32 a, u32 b)
    {
        return record({Op::Kind::Multiply, 0, checked(a), checked(b)});
    }
    u32
    square(u32 a)
    {
        return record({Op::Kind::Square, 0, checked(a)});
    }
    u32
    rotate(u32 a, i64 k)
    {
        Op op{Op::Kind::Rotate, 0, checked(a)};
        op.rot = k;
        return record(op);
    }
    u32
    bootstrap(u32 a)
    {
        return record({Op::Kind::Bootstrap, 0, checked(a)});
    }
    /** In place on register @p a (no new register). */
    void
    rescale(u32 a)
    {
        Op op{Op::Kind::Rescale, 0, checked(a)};
        ops_.push_back(op);
    }
    /** In place on register @p a (no new register). */
    void
    multiplyScalar(u32 a, double c)
    {
        Op op{Op::Kind::MultiplyScalar, 0, checked(a)};
        op.scalar = c;
        ops_.push_back(op);
    }

    /** Marks @p reg as the request's result (default: last produced). */
    void
    returns(u32 reg)
    {
        output_ = checked(reg);
        explicitOutput_ = true;
    }

    // Executor interface (server workers and reference runs). ---------
    const std::vector<ckks::Ciphertext> &inputs() const
    {
        return inputs_;
    }
    std::vector<ckks::Ciphertext> &inputs() { return inputs_; }
    const std::vector<Op> &ops() const { return ops_; }
    u32 numRegisters() const { return numRegs_; }
    u32
    outputRegister() const
    {
        if (explicitOutput_)
            return output_;
        FIDES_ASSERT(numRegs_ > 0);
        return numRegs_ - 1;
    }

    /** Deep copy (clones the input ciphertexts). */
    Request
    clone() const
    {
        Request r;
        r.inputs_.reserve(inputs_.size());
        for (const ckks::Ciphertext &ct : inputs_)
            r.inputs_.push_back(ct.clone());
        r.ops_ = ops_;
        r.numRegs_ = numRegs_;
        r.output_ = output_;
        r.explicitOutput_ = explicitOutput_;
        return r;
    }

  private:
    u32
    checked(u32 reg) const
    {
        if (reg >= numRegs_)
            fatal("request register %u out of range (have %u)", reg,
                  numRegs_);
        return reg;
    }

    u32
    record(Op op)
    {
        op.dst = numRegs_++;
        ops_.push_back(op);
        return op.dst;
    }

    std::vector<ckks::Ciphertext> inputs_;
    std::vector<Op> ops_;
    u32 numRegs_ = 0;
    u32 output_ = 0;
    bool explicitOutput_ = false;
};

} // namespace fideslib::serve
